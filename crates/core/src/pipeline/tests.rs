//! Pipeline unit tests (moved from the pre-split `processor.rs`).

use sqip_isa::Trace;

use crate::config::{SimConfig, SqDesign};
use crate::pipeline::Processor;
use crate::stats::SimStats;

mod behaviour {
    use super::*;
    use sqip_isa::{trace_program, ProgramBuilder, Reg};
    use sqip_types::DataSize;

    fn run_design(design: SqDesign, trace: &Trace) -> SimStats {
        Processor::new(SimConfig::with_design(design), trace).run()
    }

    /// st/ld to the same address every iteration: classic forwarding.
    fn forwarding_loop(iters: i64) -> Trace {
        let mut b = ProgramBuilder::new();
        let (ctr, v, t) = (Reg::new(1), Reg::new(2), Reg::new(3));
        b.load_imm(ctr, iters);
        b.load_imm(v, 7);
        let top = b.label("top");
        b.add_imm(v, v, 3);
        b.store(DataSize::Quad, v, Reg::ZERO, 0x100);
        b.load(DataSize::Quad, t, Reg::ZERO, 0x100);
        b.add(t, t, v); // consume the loaded value
        b.add_imm(ctr, ctr, -1);
        b.branch_nz(ctr, top);
        b.halt();
        trace_program(&b.build().unwrap(), 1_000_000).unwrap()
    }

    /// The paper's not-most-recent pathology: X[i] = A * X[i-2].
    fn not_most_recent_loop(iters: i64) -> Trace {
        let mut b = ProgramBuilder::new();
        let (ctr, ptr, x, y) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
        b.load_imm(ctr, iters);
        b.load_imm(ptr, 0x1000);
        // Seed X[0], X[1].
        b.load_imm(x, 1);
        b.store(DataSize::Quad, x, ptr, 0);
        b.store(DataSize::Quad, x, ptr, 8);
        let top = b.label("top");
        b.load(DataSize::Quad, y, ptr, 0); // X[i-2]
        b.mul_imm(y, y, 3); // A * X[i-2]
        b.store(DataSize::Quad, y, ptr, 16); // X[i]
        b.add_imm(ptr, ptr, 8);
        b.add_imm(ctr, ctr, -1);
        b.branch_nz(ctr, top);
        b.halt();
        trace_program(&b.build().unwrap(), 1_000_000).unwrap()
    }

    /// Pointer-chase over a large ring: cache misses, no forwarding.
    fn pointer_chase(iters: i64) -> Trace {
        let mut b = ProgramBuilder::new();
        let (ctr, p) = (Reg::new(1), Reg::new(2));
        // Build a ring of 4096 nodes, stride 1 page to defeat the L1/TLB.
        let nodes = 512i64;
        b.load_imm(ctr, nodes);
        b.load_imm(p, 0x10_0000);
        let init = b.label("init");
        {
            let (nxt,) = (Reg::new(3),);
            b.add_imm(nxt, p, 4096);
            b.store(DataSize::Quad, nxt, p, 0);
            b.add_imm(p, p, 4096);
            b.add_imm(ctr, ctr, -1);
            b.branch_nz(ctr, init);
        }
        // Close the ring.
        let last = 0x10_0000 + (nodes - 1) * 4096;
        let (head,) = (Reg::new(3),);
        b.load_imm(head, 0x10_0000);
        b.load_imm(p, last);
        b.store(DataSize::Quad, head, p, 0);
        // Chase.
        b.load_imm(ctr, iters);
        b.load_imm(p, 0x10_0000);
        let top = b.label("chase");
        b.load(DataSize::Quad, p, p, 0);
        b.add_imm(ctr, ctr, -1);
        b.branch_nz(ctr, top);
        b.halt();
        trace_program(&b.build().unwrap(), 10_000_000).unwrap()
    }

    #[test]
    fn all_designs_complete_a_forwarding_loop() {
        let trace = forwarding_loop(200);
        for design in SqDesign::ALL {
            let stats = run_design(design, &trace);
            assert_eq!(
                stats.committed,
                trace.len() as u64,
                "{design} must commit the whole trace"
            );
            assert!(stats.cycles > 0);
        }
    }

    #[test]
    fn ideal_oracle_never_flushes() {
        let trace = not_most_recent_loop(300);
        let stats = run_design(SqDesign::IdealOracle, &trace);
        assert_eq!(stats.flushes, 0, "oracle scheduling never violates");
        assert_eq!(stats.mis_forwards, 0);
    }

    #[test]
    fn indexed_design_learns_to_forward() {
        let trace = forwarding_loop(500);
        let stats = run_design(SqDesign::Indexed3FwdDly, &trace);
        // After the first training flush, every iteration's load forwards.
        assert!(
            stats.loads_forwarded > 400,
            "expected most loads to forward, got {}",
            stats.loads_forwarded
        );
        assert!(
            stats.mis_forwards <= 3,
            "steady-state forwarding should flush at most a couple of times, got {}",
            stats.mis_forwards
        );
    }

    #[test]
    fn associative_designs_forward_without_training_flushes() {
        let trace = forwarding_loop(300);
        let stats = run_design(SqDesign::Associative3, &trace);
        assert!(stats.loads_forwarded > 250);
        // The associative SQ always finds the right store once scheduling
        // is reasonable; a handful of early ordering violations may occur.
        assert!(stats.mis_forwards <= 3, "got {}", stats.mis_forwards);
    }

    #[test]
    fn delay_prediction_tames_not_most_recent_forwarding() {
        let trace = not_most_recent_loop(800);
        let fwd = run_design(SqDesign::Indexed3Fwd, &trace);
        let dly = run_design(SqDesign::Indexed3FwdDly, &trace);
        assert!(
            fwd.mis_forwards > 5,
            "raw indexed forwarding should flush repeatedly on X[i]=A*X[i-2], got {}",
            fwd.mis_forwards
        );
        assert!(
            dly.mis_forwards * 5 < fwd.mis_forwards,
            "delay prediction should remove most flushes ({} vs {})",
            dly.mis_forwards,
            fwd.mis_forwards
        );
        assert!(dly.loads_delayed > 0, "delays must actually be applied");
        // Delay converts the flush penalty into a (usually smaller, but per
        // the paper not universally smaller — it degrades 6 of 47 programs)
        // delay penalty; require it to stay in the same ballpark here and
        // leave the aggregate comparison to the Figure 4 harness.
        assert!(
            (dly.cycles as f64) < fwd.cycles as f64 * 1.25,
            "delay penalty must stay comparable to the flush penalty ({} vs {})",
            dly.cycles,
            fwd.cycles
        );
    }

    #[test]
    fn values_stay_architectural_across_designs() {
        // The debug_assert in commit_store cross-checks every committed
        // store against the golden trace; run a value-heavy program under
        // every design to exercise it.
        let trace = not_most_recent_loop(200);
        for design in SqDesign::ALL {
            let stats = run_design(design, &trace);
            assert_eq!(stats.committed, trace.len() as u64, "{design}");
        }
    }

    #[test]
    fn cache_misses_trigger_replays() {
        let trace = pointer_chase(2000);
        let stats = run_design(SqDesign::Indexed3FwdDly, &trace);
        assert!(
            stats.l1.misses > 500,
            "page-stride pointer chase must miss, got {:?}",
            stats.l1
        );
        assert!(
            stats.replays > 100,
            "consumers of missing loads must replay, got {}",
            stats.replays
        );
        assert_eq!(stats.mis_forwards, 0, "no forwarding in a pure chase");
    }

    /// acc round-trips through memory every iteration, so SQ forwarding
    /// latency sits on the program's critical path; an independent fdiv
    /// drip keeps the ROB head busy so stores linger in the SQ (otherwise
    /// a lone two-instruction loop commits stores before adjacent loads
    /// reach their SQ access and nothing ever forwards).
    fn serial_forwarding_loop(iters: i64) -> Trace {
        let mut b = ProgramBuilder::new();
        let (ctr, acc, f) = (Reg::new(1), Reg::new(2), Reg::new(5));
        b.load_imm(ctr, iters);
        b.load_imm(acc, 1);
        b.load_imm(f, 12345);
        let top = b.label("top");
        b.fdiv(f, f, f);
        b.store(DataSize::Quad, acc, Reg::ZERO, 0x100);
        b.load(DataSize::Quad, acc, Reg::ZERO, 0x100);
        b.add_imm(acc, acc, 3);
        b.add_imm(ctr, ctr, -1);
        b.branch_nz(ctr, top);
        b.halt();
        trace_program(&b.build().unwrap(), 1_000_000).unwrap()
    }

    #[test]
    fn slow_associative_sq_is_slower_on_forwarding_code() {
        let trace = serial_forwarding_loop(500);
        let fast = run_design(SqDesign::Associative3, &trace);
        let slow = run_design(SqDesign::Associative5Replay, &trace);
        assert!(
            slow.cycles > fast.cycles,
            "5-cycle SQ must cost cycles on forwarding-heavy code ({} vs {})",
            slow.cycles,
            fast.cycles
        );
        assert!(
            slow.replays > fast.replays,
            "forwarded loads replay dependents"
        );
    }

    #[test]
    fn forward_latency_prediction_cuts_replays() {
        let trace = serial_forwarding_loop(500);
        let replay = run_design(SqDesign::Associative5Replay, &trace);
        let fwdpred = run_design(SqDesign::Associative5FwdPred, &trace);
        assert!(
            fwdpred.replays < replay.replays,
            "predicting forwarders avoids replays ({} vs {})",
            fwdpred.replays,
            replay.replays
        );
    }

    /// The registry extension the closed enum could not express: the
    /// indexed scheme at a 5-cycle SQ. It must behave like an indexed
    /// design (forwarding via index prediction) while paying the slower
    /// SQ on forwarding-critical code.
    #[test]
    fn registry_extension_indexed_5_behaves_like_a_slow_indexed_sq() {
        let design: SqDesign = "indexed-5-fwd+dly".parse().expect("extension registered");
        let trace = serial_forwarding_loop(500);
        let fast = run_design(SqDesign::Indexed3FwdDly, &trace);
        let slow = run_design(design, &trace);
        assert_eq!(slow.committed, trace.len() as u64);
        assert!(
            slow.loads_forwarded > 100,
            "the indexed-5 design still forwards, got {}",
            slow.loads_forwarded
        );
        assert!(
            slow.cycles > fast.cycles,
            "a 5-cycle indexed SQ must cost cycles on forwarding-heavy code ({} vs {})",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn branch_mispredicts_are_counted() {
        // A data-dependent unpredictable-ish branch: alternating pattern is
        // actually learnable by gshare, so use a short loop with a final
        // fall-through that mispredicts once per run at most; just sanity
        // check counters move.
        let trace = forwarding_loop(100);
        let stats = run_design(SqDesign::Indexed3FwdDly, &trace);
        assert!(stats.branches > 90);
        assert!(stats.branch_mispredicts <= stats.branches);
    }

    #[test]
    fn svw_filter_limits_reexecution() {
        let trace = forwarding_loop(500);
        let stats = run_design(SqDesign::Indexed3FwdDly, &trace);
        assert!(
            stats.re_executions <= stats.naive_reexec_candidates + stats.mis_forwards,
            "SVW must not re-execute more than the naive rule ({} vs {})",
            stats.re_executions,
            stats.naive_reexec_candidates
        );
    }

    #[test]
    fn ipc_ordering_matches_the_paper() {
        // ideal >= indexed+dly, and every design completes with sane IPC.
        let trace = forwarding_loop(1000);
        let ideal = run_design(SqDesign::IdealOracle, &trace);
        let dly = run_design(SqDesign::Indexed3FwdDly, &trace);
        assert!(
            ideal.cycles <= dly.cycles,
            "oracle must be at least as fast ({} vs {})",
            ideal.cycles,
            dly.cycles
        );
        assert!(
            ideal.ipc() > 0.5,
            "8-wide machine should sustain decent IPC"
        );
    }

    #[test]
    fn ssn_wrap_drains_cleanly() {
        let mut cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
        cfg.ssn_bits = 8; // wrap every 256 stores
        let trace = forwarding_loop(600); // 600 stores => 2 wraps
        let stats = Processor::new(cfg, &trace).run();
        assert_eq!(stats.committed, trace.len() as u64);
        assert_eq!(stats.ssn_wraps, 2);
    }

    #[test]
    fn partial_forwarding_stalls_associative_loads() {
        // Word store, quad load overlapping it: partial hit.
        let mut b = ProgramBuilder::new();
        let (ctr, v, t) = (Reg::new(1), Reg::new(2), Reg::new(3));
        b.load_imm(ctr, 50);
        b.load_imm(v, 0xAB);
        let top = b.label("top");
        b.store(DataSize::Word, v, Reg::ZERO, 0x100);
        b.load(DataSize::Quad, t, Reg::ZERO, 0x100);
        b.add_imm(ctr, ctr, -1);
        b.branch_nz(ctr, top);
        b.halt();
        let trace = trace_program(&b.build().unwrap(), 100_000).unwrap();
        let stats = run_design(SqDesign::Associative3, &trace);
        assert_eq!(stats.committed, trace.len() as u64);
        assert!(stats.partial_stalls > 10, "got {}", stats.partial_stalls);
        // The very first iteration may take an ordering violation before
        // the FSP learns the dependence; after that, loads stall instead.
        assert!(
            stats.mis_forwards <= 2,
            "stall, not mis-speculate: {}",
            stats.mis_forwards
        );
    }

    #[test]
    fn empty_like_program_terminates() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let trace = trace_program(&b.build().unwrap(), 10).unwrap();
        let stats = run_design(SqDesign::Indexed3FwdDly, &trace);
        assert_eq!(stats.committed, 1);
        assert_eq!(stats.loads, 0);
    }
}

mod ordering_tests {
    use super::*;
    use crate::config::OrderingMode;
    use sqip_isa::{trace_program, ProgramBuilder, Reg};
    use sqip_types::DataSize;

    /// A loop guaranteed to produce early-load ordering hazards: the store
    /// data depends on a long fdiv chain, so unscheduled loads race it.
    fn hazard_loop(iters: i64) -> Trace {
        let mut b = ProgramBuilder::new();
        let (ctr, f, t) = (Reg::new(1), Reg::new(2), Reg::new(3));
        b.load_imm(ctr, iters);
        b.load_imm(f, 12345);
        let top = b.label("top");
        b.fdiv(f, f, f); // slow producer
        b.add_imm(f, f, 1); // keep the value nonzero and changing
        b.store(DataSize::Quad, f, Reg::ZERO, 0x800);
        b.load(DataSize::Quad, t, Reg::ZERO, 0x800);
        b.xor(t, t, f);
        b.add_imm(ctr, ctr, -1);
        b.branch_nz(ctr, top);
        b.halt();
        trace_program(&b.build().unwrap(), 1_000_000).unwrap()
    }

    fn cam_config(design: SqDesign) -> SimConfig {
        let mut cfg = SimConfig::with_design(design);
        cfg.ordering = OrderingMode::LqCam;
        cfg
    }

    #[test]
    fn lq_cam_detects_and_recovers_from_violations() {
        let trace = hazard_loop(300);
        let stats = Processor::new(cam_config(SqDesign::Associative3), &trace).run();
        // The debug assertions in commit_store verify every committed store
        // against the golden trace, so completion here means the partial
        // squash restored a consistent machine state every time.
        assert_eq!(stats.committed, trace.len() as u64);
        assert!(
            stats.flushes > 0,
            "the hazard loop must violate at least once"
        );
        assert_eq!(stats.re_executions, 0, "LQ CAM mode never re-executes");
    }

    #[test]
    fn lq_cam_matches_svw_results_on_all_associative_designs() {
        let trace = hazard_loop(300);
        for design in [
            SqDesign::IdealOracle,
            SqDesign::Associative3StoreSets,
            SqDesign::Associative3,
            SqDesign::Associative5Replay,
            SqDesign::Associative5FwdPred,
        ] {
            let cam = Processor::new(cam_config(design), &trace).run();
            let svw = Processor::new(SimConfig::with_design(design), &trace).run();
            assert_eq!(cam.committed, trace.len() as u64, "{design} (cam)");
            assert_eq!(svw.committed, trace.len() as u64, "{design} (svw)");
        }
    }

    #[test]
    fn lq_cam_flushes_less_work_than_full_pipeline_flush() {
        // A CAM violation squashes from the offending load, not the whole
        // window, so it should squash less work per flush on average.
        let trace = hazard_loop(400);
        let cam = Processor::new(cam_config(SqDesign::Associative3), &trace).run();
        let svw = Processor::new(SimConfig::with_design(SqDesign::Associative3), &trace).run();
        if cam.flushes > 0 && svw.flushes > 0 {
            let cam_per = cam.squashed as f64 / cam.flushes as f64;
            let svw_per = svw.squashed as f64 / svw.flushes as f64;
            assert!(
                cam_per <= svw_per * 1.1,
                "partial squash should not discard more than a commit-point flush ({cam_per:.0} vs {svw_per:.0})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "wrong-entry forwarding")]
    fn lq_cam_rejects_indexed_designs() {
        let trace = hazard_loop(10);
        let _ = Processor::new(cam_config(SqDesign::Indexed3FwdDly), &trace).run();
    }

    #[test]
    #[should_panic(expected = "wrong-entry forwarding")]
    fn lq_cam_rejects_registry_extension_indexed_designs() {
        // Config validation is capability-driven, so it rejects *any*
        // registered indexed design — including ones added after the fact.
        let design: SqDesign = "indexed-5-fwd+dly".parse().unwrap();
        let trace = hazard_loop(10);
        let _ = Processor::new(cam_config(design), &trace).run();
    }

    #[test]
    fn original_store_sets_learns_to_schedule() {
        let trace = hazard_loop(400);
        let stats = Processor::new(
            SimConfig::with_design(SqDesign::Associative3StoreSets),
            &trace,
        )
        .run();
        assert_eq!(stats.committed, trace.len() as u64);
        // After the first few violations the SSIT/LFST pair gates the load
        // behind the store and violations stop.
        assert!(
            stats.mis_forwards < 20,
            "store sets must learn the dependence, got {} violations",
            stats.mis_forwards
        );
        assert!(stats.loads_forwarded > 200, "and the load then forwards");
    }

    #[test]
    fn original_and_reformulated_store_sets_are_comparable() {
        // §4.4: "in many other cases our formulation slightly outperforms
        // the original" — they should land within a few percent of each
        // other on well-behaved code.
        let trace = hazard_loop(400);
        let orig = Processor::new(
            SimConfig::with_design(SqDesign::Associative3StoreSets),
            &trace,
        )
        .run();
        let reform = Processor::new(SimConfig::with_design(SqDesign::Associative3), &trace).run();
        let ratio = orig.cycles as f64 / reform.cycles as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "formulations should be comparable, got ratio {ratio:.3}"
        );
    }
}

mod path_tests {
    use super::*;
    use sqip_isa::{trace_program, ProgramBuilder, Reg};
    use sqip_types::DataSize;

    /// One load fed by two static stores selected by an alternating branch:
    /// a 1-way (direct-mapped) FSP thrashes between the two dependences,
    /// but with path bits the two paths index different sets and each can
    /// hold its own store.
    fn branch_selected_producer(iters: i64) -> Trace {
        let mut b = ProgramBuilder::new();
        let (ctr, par, v, t) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
        b.load_imm(ctr, iters);
        b.load_imm(v, 5);
        let top = b.label("top");
        b.add_imm(v, v, 1);
        b.and(par, ctr, Reg::new(5)); // parity selector (r5 = 1, prepended)
        b.branch_nz_to(par, "odd");
        b.store(DataSize::Quad, v, Reg::ZERO, 0xA80); // even-path store
        b.jump_to("join");
        b.place("odd");
        b.store(DataSize::Quad, v, Reg::ZERO, 0xA80); // odd-path store
        b.place("join");
        b.load(DataSize::Quad, t, Reg::ZERO, 0xA80);
        b.xor(t, t, v);
        b.add_imm(ctr, ctr, -1);
        b.branch_nz(ctr, top);
        b.halt();
        // Prepend mask setup by rebuilding: simplest to set r5 in a fresh builder.
        let inner = b.build().unwrap();
        let mut outer = ProgramBuilder::new();
        outer.load_imm(Reg::new(5), 1);
        for (_, inst) in inner.iter() {
            let mut i = *inst;
            // shift branch/jump targets by 1 for the prepended instruction
            if i.op.is_branch() && !matches!(i.op, sqip_isa::Op::Ret) {
                i.imm += 1;
            }
            outer.emit(i);
        }
        let p = outer.build().unwrap();
        trace_program(&p, 1_000_000).unwrap()
    }

    #[test]
    fn path_bits_rescue_a_direct_mapped_fsp() {
        let trace = branch_selected_producer(600);
        let run = |path_bits: u32| {
            let mut cfg = SimConfig::with_design(SqDesign::Indexed3Fwd);
            cfg.fsp.ways = 1; // direct-mapped: one dependence per set
            cfg.fsp.path_bits = path_bits;
            Processor::new(cfg, &trace).run()
        };
        let flat = run(0);
        let pathful = run(4);
        assert_eq!(flat.committed, trace.len() as u64);
        assert_eq!(pathful.committed, trace.len() as u64);
        assert!(
            pathful.loads_forwarded > flat.loads_forwarded,
            "path-qualified FSP should separate the two producers: {} vs {}",
            pathful.loads_forwarded,
            flat.loads_forwarded
        );
    }

    #[test]
    fn path_bits_zero_is_the_default_design() {
        // Sanity: path_bits = 0 must behave identically to the plain API.
        let trace = branch_selected_producer(200);
        let a = Processor::new(SimConfig::with_design(SqDesign::Indexed3FwdDly), &trace).run();
        let mut cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
        cfg.fsp.path_bits = 0;
        let b = Processor::new(cfg, &trace).run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.mis_forwards, b.mis_forwards);
    }
}

mod engine_tests {
    use super::*;
    use crate::config::Engine;
    use crate::observer::{ObserverAction, SimObserver};
    use sqip_isa::{trace_program, ProgramBuilder, Reg};
    use sqip_types::DataSize;

    /// A forwarding loop with enough cache-missing work for the event
    /// engine to actually skip cycles.
    fn observed_workload() -> Trace {
        let mut b = ProgramBuilder::new();
        let (ctr, v, t, p) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
        b.load_imm(ctr, 400);
        b.load_imm(p, 0x10_0000);
        let top = b.label("top");
        b.store(DataSize::Quad, v, Reg::ZERO, 0x100);
        b.load(DataSize::Quad, t, Reg::ZERO, 0x100);
        b.load(DataSize::Quad, v, p, 0); // cold, page-strided: misses
        b.add_imm(p, p, 4096);
        b.add_imm(ctr, ctr, -1);
        b.branch_nz(ctr, top);
        b.halt();
        trace_program(&b.build().unwrap(), 1_000_000).unwrap()
    }

    /// Records every interval callback: (cycle, cycles-stat, committed).
    struct Recorder {
        interval: u64,
        samples: Vec<(u64, u64, u64)>,
        abort_after: Option<usize>,
    }

    impl SimObserver for Recorder {
        fn interval(&self) -> u64 {
            self.interval
        }
        fn on_interval(&mut self, cycle: u64, stats: &SimStats) -> ObserverAction {
            self.samples.push((cycle, stats.cycles, stats.committed));
            if self.abort_after.is_some_and(|n| self.samples.len() >= n) {
                ObserverAction::Abort
            } else {
                ObserverAction::Continue
            }
        }
    }

    fn observe(engine: Engine, interval: u64, abort_after: Option<usize>) -> (Recorder, SimStats) {
        let trace = observed_workload();
        let mut cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
        cfg.engine = engine;
        let mut rec = Recorder {
            interval,
            samples: Vec::new(),
            abort_after,
        };
        let stats = Processor::new(cfg, &trace)
            .run_observed(&mut rec)
            .expect("run completes");
        (rec, stats)
    }

    /// Negative path for skip-ahead: interval boundaries land *between*
    /// active cycles, so the event engine must cap its jumps to stop on
    /// each boundary exactly — observers see the same cycle numbers and
    /// the same per-interval statistics as under the reference stepper,
    /// including boundaries falling inside long idle stretches.
    #[test]
    fn skip_ahead_lands_exactly_on_observer_interval_boundaries() {
        for interval in [1, 7, 100, 1000] {
            let (ev, ev_stats) = observe(Engine::Event, interval, None);
            let (rf, rf_stats) = observe(Engine::Reference, interval, None);
            assert_eq!(ev_stats, rf_stats, "final stats diverge @{interval}");
            assert_eq!(
                ev.samples, rf.samples,
                "per-interval observer snapshots diverge @{interval}"
            );
            for &(cycle, cycles_stat, _) in &ev.samples {
                assert_eq!(cycle % interval, 0, "callback off the boundary");
                assert_eq!(cycle, cycles_stat, "stats snapshot inconsistent");
            }
        }
    }

    /// Early abort from an observer stops both engines at the same
    /// boundary with identical partial statistics.
    #[test]
    fn observer_abort_is_engine_invariant() {
        let (ev, ev_stats) = observe(Engine::Event, 50, Some(3));
        let (rf, rf_stats) = observe(Engine::Reference, 50, Some(3));
        assert_eq!(ev.samples.len(), 3);
        assert_eq!(ev.samples, rf.samples);
        assert_eq!(ev_stats, rf_stats);
        assert!(
            ev_stats.committed < observed_workload().len() as u64,
            "abort really cut the run short"
        );
    }

    /// Negative path for the event wheel, end to end: a zero-cycle
    /// issue-to-execute stage makes the pipeline request execute events
    /// for the *current* cycle — "in the past" by the time the wheel sees
    /// them. The wheel clamps them to the next cycle in reference-heap
    /// order; both engines must agree bit-for-bit.
    #[test]
    fn zero_latency_schedule_events_in_the_past_match_reference() {
        let trace = observed_workload();
        let run = |engine: Engine| {
            let mut cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
            cfg.issue_to_exec = 0;
            cfg.engine = engine;
            Processor::new(cfg, &trace)
                .try_run()
                .expect("run completes")
        };
        assert_eq!(run(Engine::Event), run(Engine::Reference));
    }

    /// Negative path for the fused scheduler's liveness exemption:
    /// replay-heavy code under constant branch mispredicts leaves stale
    /// Exec/Wake/broadcast entries in the near rings and on the wheel
    /// after every squash, and replays re-register waiters while those
    /// stale events still drain. The incarnation checks (and cleared
    /// waiter rings) must make every stale delivery a no-op: the event
    /// and reference runs stay bit-identical, with the squash + replay
    /// traffic provably present.
    #[test]
    fn replay_while_squashed_drops_stale_events_in_every_shape() {
        let mut b = ProgramBuilder::new();
        let (ctr, v, t, p, c, one) = (
            Reg::new(1),
            Reg::new(2),
            Reg::new(3),
            Reg::new(4),
            Reg::new(5),
            Reg::new(6),
        );
        b.load_imm(ctr, 300);
        b.load_imm(p, 0x20_0000);
        b.load_imm(one, 1);
        let top = b.label("top");
        // A cold strided load (misses, replays its consumers) feeding a
        // data-dependent branch (mispredicts, squashes those consumers).
        b.load(DataSize::Quad, v, p, 0);
        b.and(c, ctr, one);
        b.store(DataSize::Quad, c, Reg::ZERO, 0x100);
        b.load(DataSize::Quad, t, Reg::ZERO, 0x100);
        let skip = b.forward_label("skip");
        b.branch_z_to(t, &skip);
        b.add_imm(v, v, 3);
        b.place(&skip);
        b.add_imm(p, p, 4096);
        b.add_imm(ctr, ctr, -1);
        b.branch_nz(ctr, top);
        b.halt();
        let trace = trace_program(&b.build().unwrap(), 1_000_000).unwrap();

        let run = |engine: Engine| {
            let mut cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
            cfg.engine = engine;
            Processor::new(cfg, &trace)
                .try_run()
                .expect("run completes")
        };
        let fused = run(Engine::Event);
        assert!(fused.flushes > 0, "no squashes: test exercises nothing");
        assert!(fused.replays > 0, "no replays: test exercises nothing");
        assert_eq!(fused, run(Engine::Reference), "event vs reference");
    }

    /// Negative path for the fused drain order: a single-cycle ALU
    /// dependency chain makes every consumer's wake arrive the same
    /// cycle it must issue, so near-ring broadcasts, ready-lane
    /// insertion and issue selection interlock cycle by cycle. Any
    /// off-by-one in the drain phases (wake delivered after issue
    /// selection, or an Exec before a same-cycle broadcast) changes the
    /// cycle count against the reference engine.
    #[test]
    fn same_cycle_issue_and_wake_ordering_is_shape_invariant() {
        let mut b = ProgramBuilder::new();
        let ctr = Reg::new(1);
        b.load_imm(ctr, 200);
        for r in 2..10 {
            b.load_imm(Reg::new(r), i64::from(r));
        }
        let top = b.label("top");
        // An 8-deep chain of 1-cycle ops: each wake must land exactly
        // when its consumer selects, every cycle.
        for r in 2..9 {
            b.add_imm(Reg::new(r + 1), Reg::new(r), 1);
        }
        b.xor(Reg::new(2), Reg::new(9), Reg::new(2));
        b.add_imm(ctr, ctr, -1);
        b.branch_nz(ctr, top);
        b.halt();
        let trace = trace_program(&b.build().unwrap(), 1_000_000).unwrap();

        let run = |engine: Engine| {
            let mut cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
            cfg.engine = engine;
            Processor::new(cfg, &trace)
                .try_run()
                .expect("run completes")
        };
        let fused = run(Engine::Event);
        assert_eq!(fused.committed, trace.len() as u64);
        assert_eq!(fused, run(Engine::Reference), "event vs reference");
    }

    /// `run_until` is cycle-exact under skip-ahead: the event engine
    /// lands on the requested cycle even when it falls mid-idle-stretch.
    #[test]
    fn run_until_lands_on_the_requested_cycle() {
        let trace = observed_workload();
        let mut cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
        cfg.engine = Engine::Event;
        let mut p = Processor::new(cfg, &trace);
        let mut rcfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
        rcfg.engine = Engine::Reference;
        let mut r = Processor::new(rcfg, &trace);
        for limit in [13, 500, 501, 2_000] {
            let a = p.run_until(limit).expect("no deadlock");
            let b = r.run_until(limit).expect("no deadlock");
            assert_eq!(a, b);
            assert_eq!(p.cycle(), r.cycle(), "cycle mismatch at limit {limit}");
            assert_eq!(p.stats(), r.stats(), "stats mismatch at limit {limit}");
        }
    }

    /// A checkpoint taken while loads wait in the load queue unexecuted,
    /// after commits have moved the queue's ids on. The restored queue
    /// numbers its entries from 0 again, so every in-flight load's id
    /// must be re-read from it; the loads then execute by those ids and
    /// the run finishes bit-identically to the straight one. Both
    /// schedulers run the same load/store unit, so both are checked.
    #[test]
    fn restored_in_flight_loads_execute_by_their_rebuilt_lq_ids() {
        for engine in [Engine::Event, Engine::Reference] {
            restored_loads_use_rebuilt_lq_ids(engine);
        }
    }

    fn restored_loads_use_rebuilt_lq_ids(engine: Engine) {
        use crate::pipeline::stages::{Pipeline, Scheduler};
        use crate::pipeline::Core;

        fn ids_of<S: Scheduler>(c: &Pipeline<'_, S>) -> (u64, Vec<(u64, u64, bool)>) {
            let loads =
                c.lq.iter()
                    .map(|e| {
                        let inst = c.sched.inst(e.seq.0).expect("queued load in flight");
                        (e.seq.0, inst.lq_id, e.is_executed())
                    })
                    .collect();
            (c.lq.head_id(), loads)
        }
        let lq_ids = |p: &Processor<'_>| match &p.core {
            Core::Event(c) => ids_of(c),
            Core::Reference(c) => ids_of(c),
        };

        let trace = observed_workload();
        let mut cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
        cfg.engine = engine;
        let mut p = Processor::new(cfg.clone(), &trace);
        let (head, loads) = loop {
            p.step().expect("no deadlock");
            let (head, loads) = lq_ids(&p);
            if head > 0 && loads.iter().filter(|l| !l.2).count() >= 2 {
                break (head, loads);
            }
        };
        for (pos, &(_, id, _)) in loads.iter().enumerate() {
            assert_eq!(id, head + pos as u64, "straight run's ids");
        }
        let mut snap = Vec::new();
        p.checkpoint(&mut snap).unwrap();
        let restored = Processor::restore(&mut snap.as_slice(), trace.stream()).unwrap();
        let (new_head, new_loads) = lq_ids(&restored);
        assert_eq!(new_head, 0, "a restored queue renumbers from 0");
        assert_eq!(new_loads.len(), loads.len());
        for (pos, (&(seq, id, done), &(old_seq, _, old_done))) in
            new_loads.iter().zip(&loads).enumerate()
        {
            assert_eq!((seq, done), (old_seq, old_done));
            assert_eq!(id, pos as u64, "load {seq}: id rebuilt from the queue");
        }
        let straight = p.try_run().expect("straight run completes");
        let resumed = restored.try_run().expect("resumed run completes");
        assert_eq!(straight, resumed, "resume is bit-identical");
    }

    /// A source that hands out at most a few records per block pull
    /// (1 to 7, cycling), notes how many each pull asked for, and counts
    /// the records it delivered.
    struct ShortBlocks<'a> {
        inner: sqip_isa::TraceCursor<'a>,
        asks: Vec<usize>,
        delivered: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl<'a> ShortBlocks<'a> {
        fn new(trace: &'a Trace) -> ShortBlocks<'a> {
            ShortBlocks {
                inner: trace.stream(),
                asks: Vec::new(),
                delivered: Default::default(),
            }
        }
    }

    impl sqip_isa::TraceSource for ShortBlocks<'_> {
        fn next_record(&mut self) -> Result<Option<sqip_isa::TraceRecord>, sqip_isa::IsaError> {
            let rec = self.inner.next_record()?;
            self.delivered
                .set(self.delivered.get() + u64::from(rec.is_some()));
            Ok(rec)
        }
        fn next_block(
            &mut self,
            out: &mut [sqip_isa::TraceRecord],
        ) -> Result<usize, sqip_isa::IsaError> {
            self.asks.push(out.len());
            let n = out.len().min(1 + self.asks.len() % 7);
            let n = self.inner.next_block(&mut out[..n])?;
            self.delivered.set(self.delivered.get() + n as u64);
            Ok(n)
        }
    }

    /// Fetch decodes straight into the record window, so a block that
    /// would run past the ring's wrap is asked for short. With whole
    /// blocks the pulls stay aligned to the ring and never meet the
    /// wrap mid-block; a source that returns short blocks knocks them
    /// off that alignment, so here the fetch frontier crosses the wrap
    /// inside a block on every lap. Both engines fetch through the same
    /// feed; under each, the short-block run must match the reference
    /// engine's whole-block run of the same trace. (Block pulls ≡ scalar
    /// pulls is pinned at the source level.)
    #[test]
    fn event_fetch_across_the_window_wrap_matches_reference() {
        use crate::pipeline::window::FETCH_BLOCK;

        let trace = observed_workload();
        let mut cfg = SimConfig::with_design(SqDesign::Associative3);
        cfg.engine = Engine::Reference;
        let whole = Processor::new(cfg.clone(), &trace).run();
        assert_eq!(whole.committed, trace.len() as u64);
        for engine in [Engine::Event, Engine::Reference] {
            cfg.engine = engine;
            let mut short = ShortBlocks::new(&trace);
            let stats = Processor::from_source(cfg.clone(), &mut short).run();
            assert_eq!(stats, whole, "{engine:?}");
            // A span cut at the wrap is shorter than both a block and
            // what the window could still take.
            let cut = short.asks.iter().filter(|&&n| n < FETCH_BLOCK).count();
            assert!(cut >= 2, "{engine:?}: {cut} spans cut at the wrap");
        }
    }

    /// A source that delivers the first `fail_at` records of a trace and
    /// then fails, stickily, as the source contract requires.
    struct FailsAt<'a> {
        inner: sqip_isa::TraceCursor<'a>,
        left: u64,
    }

    impl sqip_isa::TraceSource for FailsAt<'_> {
        fn next_record(&mut self) -> Result<Option<sqip_isa::TraceRecord>, sqip_isa::IsaError> {
            if self.left == 0 {
                return Err(sqip_isa::IsaError::TraceIo {
                    detail: "the disk went away".into(),
                });
            }
            self.left -= 1;
            self.inner.next_record()
        }
    }

    /// A source failing in the middle of a fetch block surfaces from the
    /// step as a trace-source error at exactly the records delivered,
    /// under both engines, with the same partial statistics; the failed
    /// run refuses to checkpoint.
    #[test]
    fn a_source_failing_mid_block_fails_both_engines_alike() {
        use crate::error::SimError;
        use crate::pipeline::window::FETCH_BLOCK;
        use crate::pipeline::StepOutcome;

        let trace = observed_workload();
        let fail_at = 10 * FETCH_BLOCK as u64 + 23;
        assert!(trace.len() as u64 > 2 * fail_at);
        let partial: Vec<SimStats> = [Engine::Event, Engine::Reference]
            .into_iter()
            .map(|engine| {
                let mut cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
                cfg.engine = engine;
                let source = FailsAt {
                    inner: trace.stream(),
                    left: fail_at,
                };
                let mut p = Processor::from_source(cfg, source);
                let err = loop {
                    match p.step() {
                        Ok(StepOutcome::Running) => {}
                        Ok(StepOutcome::Done) => panic!("{engine:?}: ran past the failure"),
                        Err(e) => break e,
                    }
                };
                match err {
                    SimError::TraceSource { pulled, detail } => {
                        assert_eq!(pulled, fail_at, "{engine:?}");
                        assert!(detail.contains("the disk went away"), "{detail}");
                    }
                    other => panic!("{engine:?}: expected a trace-source error, got {other}"),
                }
                assert!(p.stats().committed > 0 && p.stats().committed <= fail_at);
                assert!(matches!(
                    p.checkpoint(&mut Vec::new()),
                    Err(sqip_snapshot::SnapError::Unsupported(_))
                ));
                p.stats().clone()
            })
            .collect();
        assert_eq!(partial[0], partial[1], "equal partial statistics");
    }

    /// A checkpoint restored over a source that returns short blocks
    /// skips exactly the records the checkpointed run had pulled, and
    /// the resumed run matches running straight through.
    #[test]
    fn restore_over_short_blocks_skips_exactly_the_checkpointed_records() {
        let trace = observed_workload();
        for engine in [Engine::Event, Engine::Reference] {
            let mut cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
            cfg.engine = engine;
            let straight = Processor::new(cfg.clone(), &trace).run();
            let first = ShortBlocks::new(&trace);
            let pulled = std::rc::Rc::clone(&first.delivered);
            let mut p = Processor::from_source(cfg, first);
            p.run_until(straight.cycles / 2).unwrap();
            let mut snap = Vec::new();
            p.checkpoint(&mut snap).unwrap();
            assert!(pulled.get() > 0 && pulled.get() < trace.len() as u64);

            let second = ShortBlocks::new(&trace);
            let skipped = std::rc::Rc::clone(&second.delivered);
            let resumed = Processor::restore(&mut snap.as_slice(), second).unwrap();
            assert_eq!(skipped.get(), pulled.get(), "{engine:?}: resume skip");
            assert_eq!(resumed.try_run().unwrap(), straight, "{engine:?}");
        }
    }
}
