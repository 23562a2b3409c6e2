//! Cross-crate integration tests: whole-pipeline behaviour of the
//! simulator on handcrafted programs, across every store-queue design.

use sqip_core::{Processor, SimConfig, SqDesign};
use sqip_isa::{trace_program, ProgramBuilder, Reg};
use sqip_types::DataSize;

/// A mixed program exercising ALU, FP, branches, calls and memory.
fn mixed_program(iters: i64) -> sqip_isa::Trace {
    let mut b = ProgramBuilder::new();
    let (ctr, a, f, link, t) = (
        Reg::new(1),
        Reg::new(2),
        Reg::new(3),
        Reg::new(30),
        Reg::new(4),
    );
    b.load_imm(ctr, iters);
    b.load_imm(a, 1);
    b.load_imm(f, 99);
    b.jump_to("main");
    // A small callee that spills/reloads its argument.
    b.place("callee");
    b.store(DataSize::Quad, a, Reg::ZERO, 0x200);
    b.load(DataSize::Quad, t, Reg::ZERO, 0x200);
    b.add(a, a, t);
    b.ret(link);
    b.place("main");
    let top = b.label("top");
    b.fmul(f, f, f);
    b.call_to(link, "callee");
    b.store(DataSize::Word, a, Reg::ZERO, 0x300);
    b.load(DataSize::Half, t, Reg::ZERO, 0x302);
    b.xor(a, a, t);
    b.add_imm(ctr, ctr, -1);
    b.branch_nz(ctr, top);
    b.halt();
    trace_program(&b.build().unwrap(), 1_000_000).unwrap()
}

#[test]
fn every_design_commits_the_whole_mixed_trace() {
    let trace = mixed_program(400);
    for design in SqDesign::ALL {
        let stats = Processor::new(SimConfig::with_design(design), &trace).run();
        assert_eq!(stats.committed, trace.len() as u64, "{design}");
        assert_eq!(
            stats.loads + stats.stores,
            trace.dynamic_loads() + trace.dynamic_stores(),
            "{design}: memory op accounting"
        );
    }
}

#[test]
fn oracle_is_never_slower_than_speculative_designs() {
    let trace = mixed_program(600);
    let baseline = Processor::new(SimConfig::with_design(SqDesign::IdealOracle), &trace)
        .run()
        .cycles;
    for design in [
        SqDesign::Indexed3Fwd,
        SqDesign::Indexed3FwdDly,
        SqDesign::Associative3,
    ] {
        let cycles = Processor::new(SimConfig::with_design(design), &trace)
            .run()
            .cycles;
        // Small slack: predictor warmup noise on a short trace.
        assert!(
            cycles as f64 >= baseline as f64 * 0.98,
            "{design}: {cycles} vs oracle {baseline}"
        );
    }
}

#[test]
fn calls_and_returns_use_the_ras() {
    let trace = mixed_program(300);
    let stats = Processor::new(SimConfig::with_design(SqDesign::Indexed3FwdDly), &trace).run();
    // The RAS is pushed speculatively at fetch and is not repaired on
    // mis-forwarding flushes (like many real designs), so a handful of
    // post-flush returns may mispredict; well-nested call/ret must
    // otherwise be fully predicted.
    assert!(
        stats.return_mispredicts <= 5,
        "RAS should predict nearly all returns, got {} mispredicts",
        stats.return_mispredicts
    );
}

#[test]
fn ssn_wrap_drain_preserves_correctness_in_integration() {
    let trace = mixed_program(500);
    let mut cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
    cfg.ssn_bits = 8; // force wraps every 256 stores
    let stats = Processor::new(cfg, &trace).run();
    assert_eq!(stats.committed, trace.len() as u64);
    assert!(stats.ssn_wraps >= 3, "got {}", stats.ssn_wraps);
}

#[test]
fn narrower_machine_is_slower_on_parallel_work() {
    // The mixed program is latency-bound; width only shows on ILP-rich
    // code, so use a block of independent ALU ops per iteration.
    let mut b = ProgramBuilder::new();
    let ctr = Reg::new(1);
    b.load_imm(ctr, 500);
    let top = b.label("top");
    for i in 0..12 {
        b.add_imm(Reg::new(10 + i), ctr, i64::from(i));
    }
    b.add_imm(ctr, ctr, -1);
    b.branch_nz(ctr, top);
    b.halt();
    let trace = trace_program(&b.build().unwrap(), 100_000).unwrap();

    let wide = Processor::new(SimConfig::with_design(SqDesign::Indexed3FwdDly), &trace).run();
    let mut cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
    cfg.rename_width = 2;
    cfg.commit_width = 2;
    cfg.issue.total = 2;
    let narrow = Processor::new(cfg, &trace).run();
    assert!(
        narrow.cycles > wide.cycles * 2,
        "2-wide {} vs 8-wide {}",
        narrow.cycles,
        wide.cycles
    );
}

#[test]
fn tiny_structures_still_complete() {
    let trace = mixed_program(200);
    let mut cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
    cfg.rob_size = 16;
    cfg.iq_size = 8;
    cfg.lq_size = 4;
    cfg.sq_size = 4;
    cfg.ddp.max_distance = 4;
    let stats = Processor::new(cfg, &trace).run();
    assert_eq!(stats.committed, trace.len() as u64);
}

/// **The replay wave stays bounded.** A pointer chase over 2 MiB (twice
/// the L2) misses on most hops. The scheduler wakes each hop's dependent
/// for the predicted L1 hit, so the dependent issued inside a miss's
/// shadow replays. Before the cancel rule, that doomed issue woke its own
/// dependents in turn, and a wave of replays ran down the whole chain
/// once per miss: about 55 replays per committed load here. With the
/// rule, only the instruction issued before the miss was known replays,
/// so replays stay under one per committed load. Both engines agree.
#[test]
fn a_chase_behind_l2_misses_replays_less_than_once_per_load() {
    use sqip::{Engine, StepOutcome};
    let chase = sqip::generator::pointer_chase(8192, 256, 6_000);
    for design in [SqDesign::Indexed3FwdDly, SqDesign::Associative3] {
        let mut cfg = SimConfig::with_design(design);
        cfg.engine = Engine::Event;
        let mut event = Processor::from_source(cfg.clone(), chase.source().unwrap());
        while event.step().unwrap() == StepOutcome::Running {}
        let stats = event.stats().clone();
        assert!(
            stats.l2.misses * 4 > stats.loads,
            "{design}: the chase must miss the L2"
        );
        assert!(
            stats.replays < stats.loads,
            "{design}: {} replays for {} committed loads",
            stats.replays,
            stats.loads
        );
        let cancelled = event.sched_counters().unwrap().cancelled_broadcasts;
        assert!(cancelled > 0, "{design}: no broadcast was cancelled");

        cfg.engine = Engine::Reference;
        let reference = Processor::from_source(cfg, chase.source().unwrap()).run();
        assert_eq!(reference, stats, "{design}: engines diverge");
    }
}
