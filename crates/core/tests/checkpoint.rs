//! Checkpoint/resume: container robustness (truncation, corruption,
//! foreign versions — typed errors, never panics) and the bit-identity
//! property — running straight through equals checkpointing at an
//! arbitrary point and resuming, for every design under both engines.

use proptest::prelude::*;
use sqip_core::{
    DesignCaps, DesignRegistry, Engine, OrderingMode, Processor, SimConfig, SimStats, SqDesign,
    StepOutcome,
};
use sqip_isa::{Program, ProgramBuilder, ProgramSource, Reg};
use sqip_snapshot::SnapError;
use sqip_types::DataSize;

/// A store/load-heavy loop long enough to checkpoint mid-flight.
fn workload(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let (ctr, v, w) = (Reg::new(1), Reg::new(2), Reg::new(3));
    b.load_imm(ctr, iters);
    b.load_imm(v, 7);
    let top = b.label("top");
    b.store(DataSize::Quad, v, Reg::ZERO, 0x100);
    b.load(DataSize::Quad, w, Reg::ZERO, 0x100);
    b.add_imm(v, w, 3);
    b.store(DataSize::Word, v, Reg::ZERO, 0x208);
    b.load(DataSize::Word, w, Reg::ZERO, 0x208);
    b.add_imm(ctr, ctr, -1);
    b.branch_nz(ctr, top);
    b.halt();
    b.build().unwrap()
}

fn source(program: &Program) -> ProgramSource {
    ProgramSource::new(program.clone(), 1_000_000)
}

/// Runs `steps` processor steps (or to completion), then checkpoints.
fn checkpoint_after(cfg: &SimConfig, program: &Program, steps: usize) -> Vec<u8> {
    let mut p = Processor::from_source(cfg.clone(), source(program));
    for _ in 0..steps {
        if p.step().unwrap() == StepOutcome::Done {
            break;
        }
    }
    let mut snap = Vec::new();
    p.checkpoint(&mut snap).unwrap();
    snap
}

fn finish(mut p: Processor<'_>) -> SimStats {
    while p.step().unwrap() == StepOutcome::Running {}
    p.stats().clone()
}

#[test]
fn truncated_checkpoints_are_rejected_not_panicked() {
    let program = workload(50);
    let cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
    let snap = checkpoint_after(&cfg, &program, 40);
    // Every proper prefix must fail with a typed error; sample densely at
    // the container boundaries and sparsely through the payload.
    let cuts: Vec<usize> = (0..32.min(snap.len()))
        .chain((32..snap.len()).step_by(97))
        .collect();
    for cut in cuts {
        let err = Processor::restore(&mut &snap[..cut], source(&program))
            .err()
            .unwrap_or_else(|| panic!("truncation at {cut} must not restore"));
        assert!(
            matches!(err, SnapError::Truncated { .. } | SnapError::Corrupt(_)),
            "cut at {cut}: unexpected error {err:?}"
        );
    }
}

#[test]
fn corrupt_payload_bytes_are_rejected() {
    let program = workload(50);
    let cfg = SimConfig::with_design(SqDesign::Associative3);
    let snap = checkpoint_after(&cfg, &program, 40);
    // Flip one byte in the payload (past the 24-byte header): the
    // checksum must catch it.
    for &at in &[24usize, snap.len() / 2, snap.len() - 1] {
        let mut bad = snap.clone();
        bad[at] ^= 0x40;
        let err = Processor::restore(&mut bad.as_slice(), source(&program))
            .expect_err("corruption must not restore");
        assert!(
            matches!(err, SnapError::ChecksumMismatch { .. }),
            "flip at {at}: unexpected error {err:?}"
        );
    }
}

#[test]
fn foreign_version_and_magic_are_rejected() {
    let program = workload(50);
    let cfg = SimConfig::with_design(SqDesign::Indexed3Fwd);
    let snap = checkpoint_after(&cfg, &program, 40);

    let mut future = snap.clone();
    future[4] = 0xEE; // format version field (little-endian u32 at 4..8)
    let err = Processor::restore(&mut future.as_slice(), source(&program))
        .expect_err("foreign version must not restore");
    assert!(
        matches!(err, SnapError::UnsupportedVersion { .. }),
        "unexpected error {err:?}"
    );

    let mut alien = snap;
    alien[0..4].copy_from_slice(b"NOPE");
    let err = Processor::restore(&mut alien.as_slice(), source(&program))
        .expect_err("bad magic must not restore");
    assert!(
        matches!(err, SnapError::BadMagic { .. }),
        "unexpected {err:?}"
    );
}

#[test]
fn short_source_on_restore_is_a_source_error() {
    let program = workload(200);
    let cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
    let snap = checkpoint_after(&cfg, &program, 300);
    // Resuming over a much shorter instance of "the same" workload: the
    // fast-forward must run out of records and say so.
    let err = Processor::restore(&mut snap.as_slice(), source(&workload(2)))
        .expect_err("short source must not restore");
    assert!(matches!(err, SnapError::Source(_)), "unexpected {err:?}");
}

/// Every processor owns its dependence oracle, whatever feeds it
/// records: one reading a tee cursor over an `oracle_tap` checkpoints,
/// and resumes over a plain source bit-identically.
#[test]
fn tee_fed_processors_checkpoint_and_resume() {
    let program = workload(120);
    let cfg = SimConfig::with_design(SqDesign::Associative3);
    let (tap, _feed) = sqip_core::oracle_tap(source(&program), 4096);
    let (_tee, cursors) = sqip_isa::TraceTee::new(tap, 1, 4096);
    let cursor = cursors.into_iter().next().unwrap();
    let mut p = Processor::try_from_source(cfg.clone(), cursor).unwrap();
    for _ in 0..250 {
        p.step().unwrap();
    }
    let mut snap = Vec::new();
    p.checkpoint(&mut snap)
        .expect("a tee-fed processor checkpoints");
    let resumed = Processor::restore(&mut snap.as_slice(), source(&program)).unwrap();

    let straight = finish(Processor::from_source(cfg, source(&program)));
    assert_eq!(finish(resumed), straight, "resume diverges");
    assert_eq!(finish(p), straight, "the tee-fed run diverges");
}

#[test]
fn checkpoint_bytes_are_deterministic_and_restore_round_trips() {
    let program = workload(120);
    for engine in [Engine::Event, Engine::Reference] {
        let mut cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
        cfg.engine = engine;
        let a = checkpoint_after(&cfg, &program, 250);
        let b = checkpoint_after(&cfg, &program, 250);
        assert_eq!(a, b, "{engine:?}: equal states, equal bytes");

        // Restore, immediately re-checkpoint: full-fidelity round trip.
        let p = Processor::restore(&mut a.as_slice(), source(&program)).unwrap();
        let mut again = Vec::new();
        p.checkpoint(&mut again).unwrap();
        assert_eq!(a, again, "{engine:?}: restore→checkpoint round trip");
    }
}

#[test]
fn checkpoint_at_completion_resumes_done() {
    let program = workload(30);
    let cfg = SimConfig::with_design(SqDesign::Associative3);
    let straight = Processor::from_source(cfg.clone(), source(&program))
        .try_run()
        .unwrap();
    let snap = checkpoint_after(&cfg, &program, usize::MAX);
    let p = Processor::restore(&mut snap.as_slice(), source(&program)).unwrap();
    assert!(p.is_done(), "a finished run restores finished");
    assert_eq!(finish(p), straight);
}

/// A capability combination registered at runtime checkpoints and
/// resumes like a builtin: the snapshot names the design, and restore
/// rebuilds its policy from the registry's caps.
#[test]
fn runtime_registered_designs_checkpoint_and_resume() {
    let design = DesignRegistry::global()
        .register(
            "checkpoint-test-indexed-2",
            DesignCaps::indexed(2).with_delay().with_fwd_latency_pred(),
        )
        .unwrap();
    let program = workload(200);
    for engine in [Engine::Event, Engine::Reference] {
        let mut cfg = SimConfig::with_design(design);
        cfg.engine = engine;
        let straight = Processor::from_source(cfg.clone(), source(&program))
            .try_run()
            .unwrap();
        let snap = checkpoint_after(&cfg, &program, 300);
        let resumed = Processor::restore(&mut snap.as_slice(), source(&program)).unwrap();
        assert!(!resumed.is_done(), "{engine:?}: checkpointed mid-run");
        assert_eq!(
            finish(resumed),
            straight,
            "{engine:?} diverges after resume"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// **The resume bit-identity property.** For every design (the seven
    /// paper builtins plus the registry extension), under both engines:
    /// checkpointing after an arbitrary number of steps and resuming in a
    /// fresh processor over a fresh source yields `SimStats`
    /// bit-identical to never having stopped.
    #[test]
    fn resume_is_bit_identical_to_running_straight(
        iters in 10i64..60,
        steps in 0usize..600,
    ) {
        let program = workload(iters);
        let mut designs: Vec<SqDesign> = SqDesign::ALL.to_vec();
        designs.push("indexed-5-fwd+dly".parse().expect("extension registered"));
        for design in designs {
            for engine in [Engine::Event, Engine::Reference] {
                let mut cfg = SimConfig::with_design(design);
                cfg.engine = engine;
                let straight = Processor::from_source(cfg.clone(), source(&program))
                    .try_run()
                    .unwrap();
                let snap = checkpoint_after(&cfg, &program, steps);
                let resumed = Processor::restore(&mut snap.as_slice(), source(&program))
                    .expect("restore");
                let stitched = finish(resumed);
                prop_assert_eq!(
                    &stitched, &straight,
                    "{} / {:?} diverges after resume at step {}",
                    design, engine, steps
                );
            }
        }
    }
}

/// A loop that leaves every kind of in-flight state behind at a
/// mid-run checkpoint: forwarding pairs, a partial store/load overlap,
/// a long multiply chain and a strided load that misses the caches, so
/// far-future wakeups, store-queue waiters and replays are pending.
fn golden_workload() -> Program {
    let mut b = ProgramBuilder::new();
    let (ctr, v, w, x, y, ptr) = (
        Reg::new(1),
        Reg::new(2),
        Reg::new(3),
        Reg::new(4),
        Reg::new(5),
        Reg::new(6),
    );
    b.load_imm(ctr, 400);
    b.load_imm(v, 7);
    b.load_imm(ptr, 0x10_000);
    let top = b.label("top");
    b.store(DataSize::Quad, v, Reg::ZERO, 0x100);
    b.load(DataSize::Quad, w, Reg::ZERO, 0x100);
    b.add_imm(v, w, 3);
    b.store(DataSize::Word, v, Reg::ZERO, 0x208);
    b.load(DataSize::Quad, x, Reg::ZERO, 0x208);
    b.load(DataSize::Quad, y, ptr, 0);
    b.mul(y, y, x);
    b.store(DataSize::Quad, y, ptr, 8);
    b.add_imm(ptr, ptr, 4096);
    b.add_imm(ctr, ctr, -1);
    b.branch_nz(ctr, top);
    b.halt();
    b.build().unwrap()
}

/// **Checkpoint bytes are frozen.** The FNV-1a 64 digest and length of
/// a mid-run checkpoint of a fixed program, per engine, for an indexed
/// design under SVW re-execution and an associative one under the LQ
/// CAM. Both engines' snapshot layouts (and `SNAP_VERSION`) are part of
/// the on-disk format: a refactor that moves a byte fails here.
#[test]
fn checkpoint_bytes_match_golden_digests() {
    let program = golden_workload();
    let golden: [(SqDesign, OrderingMode, Engine, usize, u64); 4] = [
        (
            SqDesign::Indexed3FwdDly,
            OrderingMode::SvwReexecution,
            Engine::Event,
            937_831,
            0x238ce89e6986a66e,
        ),
        (
            SqDesign::Indexed3FwdDly,
            OrderingMode::SvwReexecution,
            Engine::Reference,
            844_554,
            0x1bc78d3891fdf5c5,
        ),
        (
            SqDesign::Associative3,
            OrderingMode::LqCam,
            Engine::Event,
            995_209,
            0x06f9f192a83be654,
        ),
        (
            SqDesign::Associative3,
            OrderingMode::LqCam,
            Engine::Reference,
            918_303,
            0xab85a6eefbfcbefc,
        ),
    ];
    let mut got = Vec::new();
    for (design, ordering, engine, _, _) in golden {
        let mut cfg = SimConfig::with_design(design);
        cfg.ordering = ordering;
        cfg.engine = engine;
        let mut p = Processor::from_source(cfg, source(&program));
        assert_eq!(p.run_until(3_000).unwrap(), StepOutcome::Running);
        let mut snap = Vec::new();
        p.checkpoint(&mut snap).unwrap();
        let mut fnv = sqip_snapshot::Fnv::new();
        fnv.update(&snap);
        got.push((design, ordering, engine, snap.len(), fnv.value()));
    }
    assert_eq!(sqip_snapshot::SNAP_VERSION, 5);
    assert_eq!(got, golden);
}
