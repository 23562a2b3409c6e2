//! The table-driven policy behind every registered design: the seven
//! Figure 4 designs and any capability combination registered later.

use sqip_predictors::{Ddp, Fsp, Sat, Spct, Ssbf, StoreSets};
use sqip_queues::{SqSearch, StoreQueue};
use sqip_types::{AddrSpan, DataSize, Pc, Seq, Ssn};

use crate::config::SimConfig;
use crate::policy::{DesignCaps, LoadCommitInfo, LoadRename, OracleHint, PipelineView, SqProbe};

/// The paper's design family as one parameterised policy: a
/// [`DesignCaps`] descriptor plus the full predictor bank
/// (FSP/SAT/DDP/SSBF/SPCT/Store Sets), each structure sized from the
/// [`SimConfig`].
///
/// Every registered design, such as the registry's `indexed-5-fwd+dly`,
/// is an instance of this type; the capability branches live here, keyed
/// off `caps`. Its methods are the pipeline's touch-points (see the
/// [module docs](crate::policy)).
#[derive(Debug)]
pub(crate) struct BuiltinPolicy {
    caps: DesignCaps,
    sq_size: usize,
    fsp: Fsp,
    sat: Sat,
    ddp: Ddp,
    ssbf: Ssbf,
    spct: Spct,
    store_sets: StoreSets,
}

impl BuiltinPolicy {
    /// Builds the predictor bank for one run, sized from `cfg`.
    pub(crate) fn new(caps: DesignCaps, cfg: &SimConfig) -> BuiltinPolicy {
        BuiltinPolicy {
            caps,
            sq_size: cfg.sq_size,
            fsp: Fsp::new(cfg.fsp),
            sat: Sat::new(cfg.sat_entries),
            ddp: Ddp::new(cfg.ddp),
            ssbf: Ssbf::new(cfg.ssbf_entries),
            spct: Spct::new(cfg.spct_entries),
            store_sets: StoreSets::new(cfg.store_sets),
        }
    }

    /// Pseudo-PC naming a store in the original Store Sets tables: derived
    /// from the partial store PC so that SPCT-based violation training and
    /// rename-time lookups agree.
    fn store_pseudo_pc(&self, pc: Pc) -> Pc {
        Pc::from_index(self.fsp.partial_store_pc(pc) as usize)
    }

    /// Restores a checkpointed policy for `cfg`, refusing one whose caps
    /// or SQ size differ from what `cfg.design` builds: the checkpoint
    /// would otherwise resume as another design under the configured name.
    pub(crate) fn load_for(
        r: &mut sqip_snapshot::SnapReader,
        cfg: &SimConfig,
    ) -> Result<BuiltinPolicy, sqip_snapshot::SnapError> {
        use sqip_snapshot::Snapshot as _;
        let policy = BuiltinPolicy::load(r)?;
        let caps = cfg.design.caps();
        if policy.caps != caps || policy.sq_size != cfg.sq_size {
            return Err(sqip_snapshot::SnapError::Corrupt(format!(
                "checkpointed policy ({:?}, SQ size {}) is not design `{}` \
                 ({caps:?}, SQ size {})",
                policy.caps, policy.sq_size, cfg.design, cfg.sq_size
            )));
        }
        Ok(policy)
    }

    /// **Rename (store):** observes a renaming store and optionally
    /// returns a store SSN whose *execution* must gate this store's issue
    /// (in-set serialisation under original Store Sets).
    pub(crate) fn rename_store(
        &mut self,
        pc: Pc,
        ssn: Ssn,
        seq: Seq,
        view: &PipelineView<'_>,
    ) -> Option<Ssn> {
        self.sat.update(self.fsp.partial_store_pc(pc), ssn, seq);
        if self.caps.original_store_sets {
            // In-set store serialisation: this store becomes the set's
            // last-fetched store and orders behind its predecessor.
            // Stores are named by the same partial-PC pseudo-PC used in
            // violation training (the SPCT stores partial PCs).
            let pseudo = self.store_pseudo_pc(pc);
            let pred = self.store_sets.rename_store(pseudo, ssn);
            if pred.is_in_flight(view.ssn_cmt) && !view.sq.is_executed(pred) {
                return Some(pred);
            }
        }
        None
    }

    /// **Rename (load):** predicts the load's forwarding behaviour and
    /// scheduling gates. `oracle` carries golden forwarding information
    /// iff [`DesignCaps::oracle`] is set.
    pub(crate) fn rename_load(
        &mut self,
        pc: Pc,
        path: u64,
        oracle: Option<OracleHint>,
        view: &PipelineView<'_>,
    ) -> LoadRename {
        let mut out = LoadRename::none();

        if self.caps.oracle {
            if let Some(hint) = oracle {
                if let Some(ssn) = hint.store_ssn {
                    if hint.covers {
                        out.wait_exec_ssn = Some(ssn);
                        if !view.sq.is_executed(ssn) {
                            out.exec_gate = Some(ssn);
                        }
                    } else if ssn > view.ssn_cmt {
                        // Partial coverage: wait for the store to commit.
                        out.commit_gate = Some(ssn);
                    }
                }
            }
            return out;
        }

        if self.caps.original_store_sets {
            // Original Store Sets: the load waits for the last fetched
            // store of its set to execute.
            let ssn = self.store_sets.rename_load(pc);
            if ssn.is_in_flight(view.ssn_cmt) {
                out.ssn_fwd = ssn;
                out.wait_exec_ssn = Some(ssn);
                if !view.sq.is_executed(ssn) {
                    out.exec_gate = Some(ssn);
                }
            }
            return out;
        }

        // Forwarding index prediction: FSP at decode, SAT at rename, keep
        // the youngest in-flight SSN.
        let mut best: Option<(u64, Ssn)> = None;
        for store_pc in self.fsp.predict(pc, path) {
            let ssn = self.sat.lookup(store_pc);
            if ssn.is_in_flight(view.ssn_cmt) && best.is_none_or(|(_, b)| ssn > b) {
                best = Some((store_pc, ssn));
            }
        }
        if let Some((store_pc, ssn)) = best {
            out.pred_store_pc = Some(store_pc);
            out.ssn_fwd = ssn;
            out.wait_exec_ssn = Some(ssn);
            if !view.sq.is_executed(ssn) {
                out.exec_gate = Some(ssn);
            }
        }

        // Delay index prediction: SSNdly = SSNren − Ddly; the load waits
        // until that store commits.
        if self.caps.delay {
            if let Some(d) = self.ddp.predict(pc) {
                let ssn_dly = view.ssn_ren.minus(d);
                out.ssn_dly = ssn_dly;
                if ssn_dly > view.ssn_cmt {
                    out.delay_gated = true;
                    out.commit_gate = Some(ssn_dly);
                }
            }
        }
        out
    }

    /// **Schedule:** the load latency the scheduler assumes when waking
    /// dependents of a load (`predicts_forward`: whether it carries a
    /// forwarding prediction).
    pub(crate) fn wakeup_latency(&self, predicts_forward: bool, cache_latency: u64) -> u64 {
        if self.caps.fwd_latency_pred && predicts_forward {
            // Forward-predicted loads schedule dependents at SQ latency;
            // everything else at cache latency.
            self.caps.sq_latency
        } else {
            // All other designs optimistically assume a cache hit;
            // mismatches replay dependents.
            cache_latency
        }
    }

    /// **Execute:** probes the store queue for an executing load, by
    /// associative search or by speculative indexed read.
    pub(crate) fn probe_sq(
        &self,
        sq: &StoreQueue,
        prev_store_ssn: Ssn,
        ssn_fwd: Ssn,
        ssn_cmt: Ssn,
        span: AddrSpan,
        size: DataSize,
    ) -> SqProbe {
        if self.caps.indexed {
            // Speculative indexed access: read the single predicted entry.
            match ssn_fwd
                .is_in_flight(ssn_cmt)
                .then(|| sq.indexed_read(ssn_fwd, span, size))
                .flatten()
            {
                Some(value) => SqProbe::Forward {
                    ssn: ssn_fwd,
                    value,
                    latency: self.caps.sq_latency,
                },
                None => SqProbe::Miss,
            }
        } else {
            // Conventional fully-associative search.
            match sq.search(prev_store_ssn, span, size) {
                SqSearch::Forward { ssn, value } => SqProbe::Forward {
                    ssn,
                    value,
                    latency: self.caps.sq_latency,
                },
                SqSearch::Partial { ssn } => SqProbe::Partial { ssn },
                SqSearch::Miss => SqProbe::Miss,
            }
        }
    }

    /// **Execute:** a store executed (address and data now known).
    pub(crate) fn store_executed(&mut self, pc: Pc, ssn: Ssn) {
        if self.caps.original_store_sets {
            let pseudo = self.store_pseudo_pc(pc);
            self.store_sets.store_executed(pseudo, ssn);
        }
    }

    /// **Execute:** under the LQ-CAM ordering mode, an executing store
    /// caught a younger already-executed load (on `load_path`, its path
    /// history at rename); train the scheduler.
    pub(crate) fn cam_violation(&mut self, load_pc: Pc, load_path: u64, store_pc: Pc) {
        if self.caps.original_store_sets {
            let pseudo = self.store_pseudo_pc(store_pc);
            self.store_sets.violation(load_pc, pseudo);
        } else if !self.caps.oracle {
            let store = self.fsp.partial_store_pc(store_pc);
            self.fsp.learn(load_pc, store, load_path);
        }
    }

    /// **Commit/verify:** the SVW filter — the SSN of the youngest
    /// committed store that wrote any byte of `span` (the SSBF read).
    /// A committing load re-executes iff this exceeds its SVW field.
    pub(crate) fn svw_newest(&self, span: AddrSpan) -> Ssn {
        self.ssbf.newest(span)
    }

    /// **Commit/verify:** FSP/DDP training at load commit, per Table 1
    /// and §3.2–3.3.
    pub(crate) fn train_load_commit(&mut self, load: &LoadCommitInfo) {
        if self.caps.oracle {
            return;
        }
        if self.caps.original_store_sets {
            // Original Store Sets trains on violations: merge the load and
            // the producing store (recovered via the SPCT as a pseudo-PC,
            // exactly the Table 1 row-1 `SSIT[ld.PC, SPCT[ld.A]]` action).
            if load.flushed {
                if let Some(partial) = load
                    .span
                    .byte_addrs()
                    .find_map(|b| self.spct.lookup_byte(b))
                {
                    self.store_sets
                        .violation(load.pc, Pc::from_index(partial as usize));
                }
            }
            return;
        }

        let newest = self.ssbf.newest(load.span);
        // Distance in dynamic stores from the load's rename point back to
        // the actual producer (SSNcmt at load commit == prev_store_ssn).
        // Ssn::NONE yields a huge distance, i.e. "no forwarding possible".
        let dist = load.prev_store_ssn.distance_from(newest);
        let forwarding_possible = newest.is_some() && dist < self.sq_size as u64;

        // Delay training (§3.3 / Table 1): every wrong forwarding
        // prediction (SSNfwd != SSBF[A]) raises the delay counter; correct
        // predictions lower it. The *distance* fields are only trained when
        // the event carries corroborated evidence — the load flushed, was
        // forcibly delayed, or named the right PC but the wrong dynamic
        // instance (the not-most-recent signature). Wrong predictions
        // whose cache value was right anyway keep the counter trained but
        // leave the distance at max (an effective no-delay), so aliasing
        // noise in the 2K-entry SSBF cannot manufacture real delays.
        if self.caps.delay {
            let wrong = load.ssn_fwd != newest;
            if !wrong {
                self.ddp.unlearn(load.pc);
            } else {
                let pc_right_instance_wrong =
                    forwarding_possible && load.pred_store_pc.is_some() && {
                        let actual = load
                            .span
                            .byte_addrs()
                            .find(|b| self.ssbf.newest(b.span(DataSize::Byte)) == newest)
                            .and_then(|b| self.spct.lookup_byte(b));
                        load.pred_store_pc == actual
                    };
                let evidence = load.flushed || load.was_delayed || pc_right_instance_wrong;
                self.ddp.learn(load.pc, evidence.then_some(dist));
            }
        }

        if !forwarding_possible {
            // The load and the most recent store to its address are too far
            // apart for forwarding (or there is none): unlearn (§3.2).
            if let Some(pc) = load.pred_store_pc {
                self.fsp.weaken(load.pc, pc, load.path);
            }
            return;
        }

        // Recover the actual producing store's PC from the SPCT (probing
        // the byte whose SSBF entry is newest).
        let actual_pc = load
            .span
            .byte_addrs()
            .find(|b| self.ssbf.newest(b.span(DataSize::Byte)) == newest)
            .and_then(|b| self.spct.lookup_byte(b));

        let instance_correct = load.ssn_fwd == newest;
        let pc_correct = load.pred_store_pc.is_some() && load.pred_store_pc == actual_pc;

        if instance_correct && pc_correct {
            // Correct forwarding prediction: reinforce (§3.2 "we learn
            // store-load dependences on correct forwarding").
            self.fsp.strengthen(
                load.pc,
                load.pred_store_pc.expect("pc_correct implies prediction"),
                load.path,
            );
        } else if pc_correct {
            let pc = load.pred_store_pc.expect("pc_correct implies prediction");
            if self.caps.indexed {
                // Right store PC, wrong dynamic instance (not-most-recent
                // forwarding): an indexed SQ cannot exploit this entry —
                // "there is no point in delaying the load on a store
                // instance on which it is known not to depend" — unlearn.
                self.fsp.weaken(load.pc, pc, load.path);
            } else {
                // For an associative SQ the FSP is only a scheduler, and
                // gating on the most recent instance transitively orders
                // the load behind the true (older) producer, which the
                // search then finds: the dependence is useful — reinforce.
                self.fsp.strengthen(load.pc, pc, load.path);
            }
        } else if load.flushed {
            // "... and on mis-forwardings in which we fail to predict not
            // only the forwarding index, but also the forwarding store PC"
            // — new dependences are created only by actual mis-forwardings,
            // so lossy-SSBF aliasing cannot plant spurious dependences.
            if let Some(actual) = actual_pc {
                self.fsp.learn(load.pc, actual, load.path);
            }
        }
    }

    /// **Commit/verify:** a store committed; update the SSBF and SPCT.
    pub(crate) fn store_committed(&mut self, pc: Pc, span: AddrSpan, ssn: Ssn) {
        self.ssbf.update(span, ssn);
        self.spct.update(span, self.fsp.partial_store_pc(pc));
    }

    /// **Commit:** an instruction retired (SAT log pruning).
    pub(crate) fn on_retire(&mut self, seq: Seq) {
        self.sat.prune_log(seq);
    }

    /// **Flush repair:** instructions at or younger than `from` were
    /// squashed; roll speculative predictor state back.
    pub(crate) fn on_flush(&mut self, from: Seq) {
        self.sat.rollback_younger(from);
        self.store_sets.clear_lfst();
    }

    /// **Flush repair:** the hardware SSN space wrapped; the pipeline has
    /// drained and every SSN-holding structure clears.
    pub(crate) fn on_ssn_wrap(&mut self) {
        self.ssbf.clear();
        self.spct.clear();
        self.sat.clear();
    }
}

sqip_snapshot::snapshot_struct!(BuiltinPolicy {
    caps,
    sq_size,
    fsp,
    sat,
    ddp,
    ssbf,
    spct,
    store_sets,
});
