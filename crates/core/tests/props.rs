//! End-to-end property tests: randomly generated programs must run to
//! completion under every store-queue design, with architecturally correct
//! results (the simulator cross-checks every committed store and every
//! re-executed load against the golden trace via debug assertions, which
//! are active in test builds).

use proptest::prelude::*;
use sqip_core::{Engine, OrderingMode, Processor, SimConfig, SqDesign, StepOutcome};
use sqip_isa::{trace_program, Program, ProgramBuilder, ProgramSource, Reg, Trace};
use sqip_types::{Addr, DataSize};

#[derive(Debug, Clone)]
enum Stmt {
    Alu(u8, u8, u8),
    AddImm(u8, u8, i8),
    Mul(u8, u8, u8),
    Store(u8, u16, u8), // data reg, slot, size index
    Load(u8, u16, u8),  // dst reg, slot, size index
    Fp(u8, u8),
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    let reg = 1u8..20;
    prop_oneof![
        (reg.clone(), reg.clone(), reg.clone()).prop_map(|(a, b, c)| Stmt::Alu(a, b, c)),
        (reg.clone(), reg.clone(), any::<i8>()).prop_map(|(a, b, i)| Stmt::AddImm(a, b, i)),
        (reg.clone(), reg.clone(), reg.clone()).prop_map(|(a, b, c)| Stmt::Mul(a, b, c)),
        (reg.clone(), 0u16..24, 0u8..4).prop_map(|(d, s, z)| Stmt::Store(d, s, z)),
        (reg.clone(), 0u16..24, 0u8..4).prop_map(|(d, s, z)| Stmt::Load(d, s, z)),
        (reg.clone(), reg).prop_map(|(a, b)| Stmt::Fp(a, b)),
    ]
}

fn build_trace(body: &[Stmt], iters: i64) -> Trace {
    trace_program(&build_program(body, iters), 1_000_000).unwrap()
}

fn build_program(body: &[Stmt], iters: i64) -> Program {
    let sizes = [
        DataSize::Byte,
        DataSize::Half,
        DataSize::Word,
        DataSize::Quad,
    ];
    let mut b = ProgramBuilder::new();
    let ctr = Reg::new(62);
    b.load_imm(ctr, iters);
    for r in 1..20 {
        b.load_imm(Reg::new(r), i64::from(r) * 77 + 1);
    }
    let top = b.label("top");
    for s in body {
        match *s {
            Stmt::Alu(a, x, y) => {
                b.xor(Reg::new(a), Reg::new(x), Reg::new(y));
            }
            Stmt::AddImm(a, x, i) => {
                b.add_imm(Reg::new(a), Reg::new(x), i64::from(i));
            }
            Stmt::Mul(a, x, y) => {
                b.mul(Reg::new(a), Reg::new(x), Reg::new(y));
            }
            Stmt::Store(d, slot, z) => {
                // 8-byte aligned slots so accesses overlap in varied ways.
                b.store(
                    sizes[z as usize],
                    Reg::new(d),
                    Reg::ZERO,
                    0x400 + 8 * i64::from(slot),
                );
            }
            Stmt::Load(d, slot, z) => {
                b.load(
                    sizes[z as usize],
                    Reg::new(d),
                    Reg::ZERO,
                    0x400 + 8 * i64::from(slot),
                );
            }
            Stmt::Fp(a, x) => {
                b.fmul(Reg::new(a), Reg::new(a), Reg::new(x));
            }
        }
    }
    b.add_imm(ctr, ctr, -1);
    b.branch_nz(ctr, top);
    b.halt();
    b.build().unwrap()
}

/// Random machine-geometry knobs for the engine-differential properties.
/// Kept structurally valid by construction (`SimConfig::try_validate`
/// cross-checks are re-asserted in the tests): the DDP distance bound
/// tracks the SQ size, and widths stay non-zero.
#[derive(Debug, Clone, Copy)]
struct ConfigKnobs {
    rob_size: usize,
    iq_size: usize,
    lq_size: usize,
    sq_size: usize,
    fetch_width: usize,
    rename_width: usize,
    commit_width: usize,
    front_latency: u64,
    /// Zero exercises events scheduled "in the past" (delivered on the
    /// wheel's next pass).
    issue_to_exec: u64,
    post_exec_depth: u64,
    reexec_ports: usize,
    ssn_bits: u32,
    /// Ranges past the near rings' 64-cycle span, so broadcasts fall back
    /// to the event wheel and far events are exercised end-to-end.
    memory_latency: u64,
}

impl ConfigKnobs {
    fn apply(self, mut cfg: SimConfig) -> SimConfig {
        cfg.rob_size = self.rob_size;
        cfg.iq_size = self.iq_size;
        cfg.lq_size = self.lq_size;
        cfg.sq_size = self.sq_size;
        cfg.ddp.max_distance = self.sq_size as u64;
        cfg.fetch_width = self.fetch_width;
        cfg.rename_width = self.rename_width;
        cfg.commit_width = self.commit_width;
        cfg.front_latency = self.front_latency;
        cfg.issue_to_exec = self.issue_to_exec;
        cfg.post_exec_depth = self.post_exec_depth;
        cfg.reexec_ports = self.reexec_ports;
        cfg.ssn_bits = self.ssn_bits;
        cfg.hierarchy.memory_latency = self.memory_latency;
        cfg
    }
}

fn config_knobs_strategy() -> impl Strategy<Value = ConfigKnobs> {
    (
        (8usize..64, 8usize..64, 8usize..32, 8usize..32),
        (1usize..8, 1usize..8, 1usize..8),
        (0u64..8, 0u64..6, 0u64..6, 1usize..3, 8u32..12),
        100u64..1000,
    )
        .prop_map(
            |(
                (rob_size, iq_size, lq_size, sq_size),
                (fetch_width, rename_width, commit_width),
                (front_latency, issue_to_exec, post_exec_depth, reexec_ports, ssn_bits),
                memory_latency,
            )| ConfigKnobs {
                rob_size,
                iq_size,
                lq_size,
                sq_size,
                fetch_width,
                rename_width,
                commit_width,
                front_latency,
                issue_to_exec,
                post_exec_depth,
                reexec_ports,
                ssn_bits,
                memory_latency,
            },
        )
}

/// Runs `trace` under `design` to completion and captures the committed
/// architectural state: instruction count, the whole register file, and
/// the memory slots the random programs store to.
fn arch_state(design: SqDesign, trace: &Trace) -> (u64, Vec<u64>, Vec<u64>) {
    let mut p = Processor::new(SimConfig::with_design(design), trace);
    while p.step().expect("no deadlock") == StepOutcome::Running {}
    let regs = (0..sqip_isa::NUM_REGS as u8)
        .map(|r| p.committed_reg(Reg::new(r)))
        .collect();
    let mem = (0..24u64)
        .map(|slot| p.committed_mem(Addr::new(0x400 + 8 * slot), DataSize::Quad))
        .collect();
    (p.stats().committed, regs, mem)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The central soundness property: any program, any design — the
    /// pipeline commits the exact golden instruction stream and never
    /// deadlocks, flushes notwithstanding.
    #[test]
    fn random_programs_commit_fully_under_every_design(
        body in proptest::collection::vec(stmt_strategy(), 4..28),
        iters in 20i64..80,
    ) {
        let trace = build_trace(&body, iters);
        for design in SqDesign::ALL {
            let stats = Processor::new(SimConfig::with_design(design), &trace).run();
            prop_assert_eq!(stats.committed, trace.len() as u64, "{}", design);
            prop_assert_eq!(
                stats.loads, trace.dynamic_loads(), "{} load count", design
            );
        }
    }

    /// Oracle scheduling never mis-speculates, for any program.
    #[test]
    fn oracle_never_flushes_on_random_programs(
        body in proptest::collection::vec(stmt_strategy(), 4..28),
        iters in 20i64..60,
    ) {
        let trace = build_trace(&body, iters);
        let stats = Processor::new(SimConfig::with_design(SqDesign::IdealOracle), &trace).run();
        prop_assert_eq!(stats.flushes, 0);
        prop_assert_eq!(stats.mis_forwards, 0);
    }

    /// Timing policies must never change *values*: every design — the
    /// seven builtins and the registry-added `indexed-5-fwd+dly` — commits
    /// an identical architectural (register + memory) state on any
    /// program, however differently it schedules, forwards and flushes.
    #[test]
    fn all_designs_commit_identical_architectural_state(
        body in proptest::collection::vec(stmt_strategy(), 4..28),
        iters in 20i64..60,
    ) {
        let trace = build_trace(&body, iters);
        let mut designs: Vec<SqDesign> = SqDesign::ALL.to_vec();
        designs.push("indexed-5-fwd+dly".parse().expect("extension registered"));
        let reference = arch_state(designs[0], &trace);
        for &design in &designs[1..] {
            let got = arch_state(design, &trace);
            prop_assert_eq!(&got, &reference, "{} diverges architecturally", design);
        }
    }

    /// The streaming input path is not a different simulator: pulling the
    /// same program through `ProgramSource` (no materialized trace, no
    /// whole-trace oracle pass, O(window) memory) must produce
    /// bit-identical `SimStats` to the materialized run, for every
    /// builtin design, on any program.
    #[test]
    fn streamed_execution_is_bit_identical_to_materialized(
        body in proptest::collection::vec(stmt_strategy(), 4..28),
        iters in 20i64..60,
    ) {
        let program = build_program(&body, iters);
        let trace = trace_program(&program, 1_000_000).unwrap();
        for design in SqDesign::ALL {
            let cfg = SimConfig::with_design(design);
            let materialized = Processor::new(cfg.clone(), &trace).run();
            let source = ProgramSource::new(program.clone(), 1_000_000);
            let streamed = Processor::from_source(cfg, source).run();
            prop_assert_eq!(&streamed, &materialized, "{} diverges when streamed", design);
        }
    }

    /// **The differential property pinning the event engine.** The
    /// event scheduler (ring slabs, event wheel, idle-cycle skip-ahead)
    /// and the per-cycle reference scheduler drive the same pipeline
    /// stages two ways: on any random program, under
    /// every builtin design (plus the registry extension) and a random
    /// machine geometry, their `SimStats` must be **bit-identical** —
    /// cycle counts included, skip-ahead notwithstanding.
    #[test]
    fn event_engine_matches_reference_engine_bit_for_bit(
        body in proptest::collection::vec(stmt_strategy(), 4..28),
        iters in 20i64..60,
        knobs in config_knobs_strategy(),
    ) {
        let trace = build_trace(&body, iters);
        let mut designs: Vec<SqDesign> = SqDesign::ALL.to_vec();
        designs.push("indexed-5-fwd+dly".parse().expect("extension registered"));
        for design in designs {
            let cfg = knobs.apply(SimConfig::with_design(design));
            cfg.try_validate().expect("generated config is valid");
            let event = {
                let mut c = cfg.clone();
                c.engine = Engine::Event;
                Processor::new(c, &trace).try_run().expect("event engine runs")
            };
            let reference = {
                let mut c = cfg.clone();
                c.engine = Engine::Reference;
                Processor::new(c, &trace).try_run().expect("reference engine runs")
            };
            prop_assert_eq!(
                &event, &reference,
                "engines diverge under {} with {:?}", design, knobs
            );
        }
    }

    /// The same differential property under the LQ-CAM ordering scheme
    /// (mid-window squashes instead of full flushes), for the
    /// associative designs that support it.
    #[test]
    fn event_engine_matches_reference_engine_under_lq_cam(
        body in proptest::collection::vec(stmt_strategy(), 4..28),
        iters in 20i64..60,
        knobs in config_knobs_strategy(),
    ) {
        let trace = build_trace(&body, iters);
        for design in [
            SqDesign::IdealOracle,
            SqDesign::Associative3StoreSets,
            SqDesign::Associative3,
        ] {
            let mut cfg = knobs.apply(SimConfig::with_design(design));
            cfg.ordering = OrderingMode::LqCam;
            cfg.try_validate().expect("generated config is valid");
            let event = {
                let mut c = cfg.clone();
                c.engine = Engine::Event;
                Processor::new(c, &trace).try_run().expect("event engine runs")
            };
            let reference = {
                let mut c = cfg.clone();
                c.engine = Engine::Reference;
                Processor::new(c, &trace).try_run().expect("reference engine runs")
            };
            prop_assert_eq!(
                &event, &reference,
                "engines diverge under {}/cam with {:?}", design, knobs
            );
        }
    }

    /// The differential property observed mid-run and in architectural
    /// state, not only in end-of-run counters: both engines are stopped
    /// at one random `run_until` boundary inside the run, where their
    /// `SimStats` (and outcomes) must agree, then run to the end, where
    /// their stats, every committed register and the committed memory at
    /// every address the program stores to (read at each store's size)
    /// must agree too.
    #[test]
    fn event_engine_matches_reference_mid_run_and_in_committed_state(
        body in proptest::collection::vec(stmt_strategy(), 4..28),
        iters in 20i64..60,
        knobs in config_knobs_strategy(),
        cut_permille in 0u64..1000,
    ) {
        let trace = build_trace(&body, iters);
        let sizes = [DataSize::Byte, DataSize::Half, DataSize::Word, DataSize::Quad];
        let stored: std::collections::BTreeSet<(u64, usize)> = body
            .iter()
            .filter_map(|s| match *s {
                Stmt::Store(_, slot, z) => Some((0x400 + 8 * u64::from(slot), usize::from(z))),
                _ => None,
            })
            .collect();
        let mut designs: Vec<SqDesign> = SqDesign::ALL.to_vec();
        designs.push("indexed-5-fwd+dly".parse().expect("extension registered"));
        for design in designs {
            let cfg = knobs.apply(SimConfig::with_design(design));
            cfg.try_validate().expect("generated config is valid");
            let engine = |engine: Engine| {
                let mut c = cfg.clone();
                c.engine = engine;
                Processor::new(c, &trace)
            };
            let total = engine(Engine::Reference).try_run().expect("reference runs").cycles;
            let cut = 1 + total * cut_permille / 1000;
            let (mut event, mut reference) = (engine(Engine::Event), engine(Engine::Reference));
            let outcomes = (
                event.run_until(cut).expect("event engine runs"),
                reference.run_until(cut).expect("reference engine runs"),
            );
            prop_assert_eq!(outcomes.0, outcomes.1, "{} outcome at cycle {}", design, cut);
            prop_assert_eq!(
                event.stats(), reference.stats(),
                "engines diverge at cycle {} under {} with {:?}", cut, design, knobs
            );
            while event.step().expect("event engine runs") == StepOutcome::Running {}
            while reference.step().expect("reference engine runs") == StepOutcome::Running {}
            prop_assert_eq!(event.stats(), reference.stats(), "{} final stats", design);
            for r in 0..sqip_isa::NUM_REGS as u8 {
                prop_assert_eq!(
                    event.committed_reg(Reg::new(r)),
                    reference.committed_reg(Reg::new(r)),
                    "{} committed r{}", design, r
                );
            }
            for &(addr, z) in &stored {
                prop_assert_eq!(
                    event.committed_mem(Addr::new(addr), sizes[z]),
                    reference.committed_mem(Addr::new(addr), sizes[z]),
                    "{} committed memory at {:#x}", design, addr
                );
            }
        }
    }

    /// Wrap-around drains are transparent to correctness.
    #[test]
    fn ssn_wraps_are_transparent(
        body in proptest::collection::vec(stmt_strategy(), 8..20),
        iters in 40i64..80,
    ) {
        let trace = build_trace(&body, iters);
        let mut cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
        cfg.ssn_bits = 8;
        let stats = Processor::new(cfg, &trace).run();
        prop_assert_eq!(stats.committed, trace.len() as u64);
    }
}

/// The engine-differential property on a machine whose caches hold one
/// line each (L1 64 B, L2 128 B), so the random programs' loads miss all
/// the time and their dependents issue in miss shadows. This is the
/// case the scheduler's cancel rule acts on, and the other differential
/// properties, whose programs fit the paper's L1, rarely reach it.
/// Every case must agree bit for bit, and the cases together must cancel
/// some broadcasts, or the property says nothing about the rule.
#[test]
fn engines_agree_bit_for_bit_when_loads_miss() {
    let mut cancelled = 0;
    for case in 0..24 {
        let mut rng = proptest::TestRng::for_case("engines_when_loads_miss", case);
        let body = proptest::collection::vec(stmt_strategy(), 4..28).generate(&mut rng);
        let iters = (20i64..60).generate(&mut rng);
        let knobs = config_knobs_strategy().generate(&mut rng);
        let trace = build_trace(&body, iters);
        for design in SqDesign::ALL {
            let mut cfg = knobs.apply(SimConfig::with_design(design));
            cfg.hierarchy.l1.capacity_bytes = 64;
            cfg.hierarchy.l1.ways = 1;
            cfg.hierarchy.l2.capacity_bytes = 128;
            cfg.hierarchy.l2.ways = 2;
            cfg.try_validate().expect("generated config is valid");
            let mut event = {
                let mut c = cfg.clone();
                c.engine = Engine::Event;
                Processor::new(c, &trace)
            };
            while event.step().expect("event engine runs") == StepOutcome::Running {}
            let reference = {
                let mut c = cfg.clone();
                c.engine = Engine::Reference;
                Processor::new(c, &trace)
                    .try_run()
                    .expect("reference engine runs")
            };
            assert_eq!(
                event.stats(),
                &reference,
                "case {case}: engines diverge under {design} with {knobs:?} on {body:?}"
            );
            cancelled += event
                .sched_counters()
                .expect("event engine")
                .cancelled_broadcasts;
        }
    }
    assert!(cancelled > 0, "no generated case reached the cancel rule");
}
