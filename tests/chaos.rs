//! Chaos suite: deterministic fault drills for the robustness layer.
//!
//! Every test arms a `rapid-faults` plan (programmatically, or from
//! `RAPID_FAULTS` for the CI matrix), breaks the system on purpose, and
//! asserts the contracted recovery behaviour:
//!
//! * a training run killed at an epoch boundary and resumed from its
//!   checkpoint finishes **bit-identical** to an uninterrupted run
//!   (RAPID and the PRM baseline);
//! * corrupting a checkpoint — truncation or a single bit flip anywhere
//!   — yields `InvalidData`, never a panic or a silently-wrong model;
//! * worker panics during batch scoring degrade to the initial ranking
//!   (full-length, valid permutations) instead of aborting;
//! * injected I/O errors during checkpointing leave training untouched
//!   and never clobber the previous valid checkpoint.
//!
//! The fault plan and the telemetry registry are process-global, so all
//! tests serialise on one lock.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use rapid::autograd::{Checkpoint, CheckpointConfig};
use rapid::core::{Rapid, RapidConfig};
use rapid::data::Flavor;
use rapid::eval::{ExperimentConfig, Pipeline, Scale};
use rapid::exec::FeatureCache;
use rapid::faults::{self, FaultPlan};
use rapid::rerankers::{is_permutation, Prm, PrmConfig, ReRanker};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// A quick-scale pipeline, small enough that each drill trains in
/// seconds. `prepare` arms any `RAPID_FAULTS` plan from the
/// environment; tests that script their own faults clear it first.
fn pipeline() -> Pipeline {
    let mut c = ExperimentConfig::new(Flavor::Taobao, Scale::Quick);
    c.data.num_users = 20;
    c.data.num_items = 100;
    c.data.ranker_train_interactions = 400;
    c.data.rerank_train_requests = 40;
    c.data.test_requests = 10;
    c.epochs = 3;
    Pipeline::prepare(c)
}

fn rapid_config() -> RapidConfig {
    RapidConfig {
        epochs: 3,
        ..RapidConfig::probabilistic()
    }
}

/// A fresh per-test checkpoint path under the OS temp dir, with any
/// leftovers from a previous run removed.
fn tmp_ckpt(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("rapid-chaos-{name}-{}.ckpt", std::process::id()));
    cleanup(&path);
    path
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".tmp");
    PathBuf::from(s)
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(tmp_sibling(path));
}

fn counter(name: &str) -> u64 {
    rapid::obs::global().snapshot().counter(name)
}

fn save_bytes(model: &Rapid) -> Vec<u8> {
    let mut buf = Vec::new();
    model.save(&mut buf).expect("save");
    buf
}

#[test]
fn rapid_kill_and_resume_is_bit_exact() {
    let _g = lock();
    let p = pipeline();
    faults::clear();
    let ds = p.dataset();
    let train = FeatureCache::from_samples(ds, p.train_samples());
    let test = FeatureCache::from_inputs(ds, p.test_inputs());

    let mut reference = Rapid::new(ds, rapid_config());
    reference.fit_prepared(ds, &train);
    let want = save_bytes(&reference);

    // Kill the run at the second epoch boundary; the per-epoch
    // checkpoint is written *before* the crash fires, so the victim
    // leaves a resumable epoch-2 checkpoint behind.
    let path = tmp_ckpt("rapid-resume");
    let ckpt = CheckpointConfig::new(&path, 1);
    faults::install(FaultPlan::parse("train.epoch=crash-at-epoch:1").unwrap());
    let crash = catch_unwind(AssertUnwindSafe(|| {
        let mut victim = Rapid::new(ds, rapid_config());
        victim.fit_resumable(ds, &train, &ckpt);
    }));
    faults::clear();
    assert!(crash.is_err(), "crash-at-epoch must abort the first run");

    let on_disk = Checkpoint::load_path(&path)
        .expect("crash must not corrupt the checkpoint")
        .expect("the epoch boundary wrote a checkpoint before the crash");
    assert_eq!(on_disk.epochs_done, 2);
    assert!(
        on_disk.optimizer.is_some(),
        "v2 checkpoints carry Adam state"
    );

    let mut resumed = Rapid::new(ds, rapid_config());
    resumed.fit_resumable(ds, &train, &ckpt);
    assert_eq!(
        save_bytes(&resumed),
        want,
        "killed-and-resumed training must be bit-identical to an uninterrupted run"
    );
    assert_eq!(
        resumed.rerank_batch(ds, &test),
        reference.rerank_batch(ds, &test)
    );
    cleanup(&path);
}

#[test]
fn prm_baseline_kill_and_resume_is_bit_exact() {
    let _g = lock();
    let p = pipeline();
    faults::clear();
    let ds = p.dataset();
    let train = FeatureCache::from_samples(ds, p.train_samples());
    let test = FeatureCache::from_inputs(ds, p.test_inputs());
    let prm = || {
        Prm::new(
            ds,
            PrmConfig {
                epochs: 3,
                ..PrmConfig::default()
            },
        )
    };

    let mut reference = prm();
    reference.fit_prepared(ds, &train);
    let want_perms = reference.rerank_batch(ds, &test);

    // Uninterrupted checkpointed run: its final checkpoint file is the
    // byte-level ground truth (PRM has no save API; the v2 checkpoint
    // — params, Adam moments, cursors, CRC — pins the full state).
    let path_a = tmp_ckpt("prm-straight");
    let mut straight = prm();
    straight.fit_resumable(ds, &train, &CheckpointConfig::new(&path_a, 1));
    let want_file = std::fs::read(&path_a).expect("final checkpoint exists");

    // Killed-and-resumed run into a second file.
    let path_b = tmp_ckpt("prm-crashed");
    let ckpt_b = CheckpointConfig::new(&path_b, 1);
    faults::install(FaultPlan::parse("train.epoch=crash-at-epoch:1").unwrap());
    let crash = catch_unwind(AssertUnwindSafe(|| {
        let mut victim = prm();
        victim.fit_resumable(ds, &train, &ckpt_b);
    }));
    faults::clear();
    assert!(crash.is_err(), "crash-at-epoch must abort the first run");

    let mut resumed = prm();
    resumed.fit_resumable(ds, &train, &ckpt_b);
    assert_eq!(
        std::fs::read(&path_b).expect("final checkpoint exists"),
        want_file,
        "the resumed run's final checkpoint must equal the uninterrupted run's, byte for byte"
    );
    assert_eq!(resumed.rerank_batch(ds, &test), want_perms);
    cleanup(&path_a);
    cleanup(&path_b);
}

#[test]
fn corrupted_checkpoints_fail_closed_with_invalid_data() {
    let _g = lock();
    let p = pipeline();
    faults::clear();
    let ds = p.dataset();
    let train = FeatureCache::from_samples(ds, p.train_samples());

    let path = tmp_ckpt("corruption");
    let mut model = Rapid::new(
        ds,
        RapidConfig {
            epochs: 1,
            ..RapidConfig::probabilistic()
        },
    );
    model.fit_resumable(ds, &train, &CheckpointConfig::new(&path, 1));
    let good = std::fs::read(&path).expect("checkpoint exists");
    assert!(
        Checkpoint::load_path(&path).unwrap().is_some(),
        "the pristine file loads"
    );

    let corrupt_path = tmp_ckpt("corruption-mutant");
    let verify = |bytes: &[u8], what: String| {
        std::fs::write(&corrupt_path, bytes).unwrap();
        let err = Checkpoint::load_path(&corrupt_path)
            .err()
            .unwrap_or_else(|| panic!("{what}: corruption must be detected, not loaded"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
    };

    // Truncations at every region boundary flavor.
    for cut in [0, 1, 7, good.len() / 2, good.len() - 1] {
        verify(&good[..cut], format!("truncated to {cut} bytes"));
    }
    // Single bit flips spread across the whole file: header, params,
    // optimizer state, cursors, CRC footer.
    let stride = (good.len() / 16).max(1);
    for pos in (0..good.len()).step_by(stride) {
        let mut mutant = good.clone();
        mutant[pos] ^= 0x40;
        verify(&mutant, format!("bit flip at byte {pos}"));
    }
    cleanup(&path);
    cleanup(&corrupt_path);
}

#[test]
fn injected_worker_panics_degrade_to_the_initial_ranking() {
    let _g = lock();
    let p = pipeline();
    faults::clear();
    let ds = p.dataset();
    let train = FeatureCache::from_samples(ds, p.train_samples());
    let test = FeatureCache::from_inputs(ds, p.test_inputs());

    let mut model = Rapid::new(ds, rapid_config());
    model.fit_prepared(ds, &train);
    let healthy = model.rerank_batch(ds, &test);

    // Every chunk panics, in the parallel pass and the sequential
    // retry alike, so every list falls back to the initial ranking.
    faults::install(FaultPlan::parse("exec.chunk=panic").unwrap());
    let degraded_before = counter("exec.degraded_requests");
    let fired_before = counter("faults.fired.exec.chunk");
    let degraded = model.rerank_batch(ds, &test);
    faults::clear();

    assert_eq!(
        degraded.len(),
        test.len(),
        "degradation must not drop lists"
    );
    for (i, perm) in degraded.iter().enumerate() {
        assert!(is_permutation(perm, test[i].len()));
        let identity: Vec<usize> = (0..test[i].len()).collect();
        assert_eq!(
            *perm, identity,
            "list {i} should fall back to the initial ranking"
        );
    }
    assert!(
        counter("exec.degraded_requests") - degraded_before >= test.len() as u64,
        "every list must be counted as degraded"
    );
    assert!(counter("faults.fired.exec.chunk") > fired_before);

    // With the plan cleared the same model serves real rankings again.
    assert_eq!(model.rerank_batch(ds, &test), healthy);
}

#[test]
fn injected_io_errors_during_checkpointing_never_lose_the_previous_checkpoint() {
    let _g = lock();
    let p = pipeline();
    faults::clear();
    let ds = p.dataset();
    let train = FeatureCache::from_samples(ds, p.train_samples());

    // Seed one valid epoch-1 checkpoint.
    let path = tmp_ckpt("io-error");
    let ckpt = CheckpointConfig::new(&path, 1);
    let mut seed = Rapid::new(
        ds,
        RapidConfig {
            epochs: 1,
            ..RapidConfig::probabilistic()
        },
    );
    seed.fit_resumable(ds, &train, &ckpt);
    let before_bytes = std::fs::read(&path).expect("seed checkpoint exists");

    // Resume to 3 epochs with every subsequent write failing mid-flight
    // (after fsync, before rename — the atomic window).
    faults::install(FaultPlan::parse("ckpt.write=io-error").unwrap());
    let errors_before = counter("ckpt.write_errors");
    let mut model = Rapid::new(ds, rapid_config());
    let report = model.fit_resumable(ds, &train, &ckpt);
    faults::clear();

    assert!(
        report.batches > 0,
        "training must continue through failed writes"
    );
    assert!(counter("ckpt.write_errors") > errors_before);
    assert_eq!(
        std::fs::read(&path).expect("previous checkpoint still present"),
        before_bytes,
        "a failed atomic write must not touch the previous checkpoint"
    );
    assert!(
        !tmp_sibling(&path).exists(),
        "failed writes must not leave .tmp staging files behind"
    );
    assert!(
        Checkpoint::load_path(&path).unwrap().is_some(),
        "the surviving checkpoint must still pass its CRC"
    );
    cleanup(&path);
}

#[test]
fn injected_nan_loss_aborts_before_corrupting_weights() {
    let _g = lock();
    let p = pipeline();
    faults::clear();
    let ds = p.dataset();
    let train = FeatureCache::from_samples(ds, p.train_samples());

    faults::install(FaultPlan::parse("train.loss=nan").unwrap());
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut model = Rapid::new(ds, rapid_config());
        model.fit_prepared(ds, &train);
    }));
    faults::clear();

    let payload = result.expect_err("a NaN loss must abort the run");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("non-finite loss"),
        "the abort names the poisoned loss: {msg}"
    );
}

/// The CI chaos matrix entry point: with `RAPID_FAULTS` set in the
/// environment, `Pipeline::prepare` arms the plan, the drill runs a
/// checkpointed training + scoring pass under it, and whatever the
/// fault was, the system must come back with valid full-length
/// rankings. Without `RAPID_FAULTS`, the test is a no-op.
#[test]
fn env_armed_chaos_run_recovers_end_to_end() {
    let Ok(spec) = std::env::var("RAPID_FAULTS") else {
        return;
    };
    let _g = lock();
    let fired_before = counter("faults.fired_total");
    let p = pipeline(); // prepare() arms the RAPID_FAULTS plan
    let ds = p.dataset();
    let train = FeatureCache::from_samples(ds, p.train_samples());
    let test = FeatureCache::from_inputs(ds, p.test_inputs());

    let path = tmp_ckpt("env-armed");
    let ckpt = CheckpointConfig::new(&path, 1);
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        let mut model = Rapid::new(ds, rapid_config());
        model.fit_resumable(ds, &train, &ckpt);
        model
    }));

    // Crash faults abort the first run; everything else trains through.
    // Either way a (resumed) model must come up and serve.
    let model = crashed.unwrap_or_else(|_| {
        let mut recovered = Rapid::new(ds, rapid_config());
        recovered.fit_resumable(ds, &train, &ckpt);
        recovered
    });
    let perms = model.rerank_batch(ds, &test);
    assert_eq!(perms.len(), test.len());
    for (i, perm) in perms.iter().enumerate() {
        assert!(is_permutation(perm, test[i].len()));
    }

    // Serve drill: the matrix's serve-side scenarios (`serve.slow`,
    // `serve.overload`, `ckpt.corrupt`) only fire on the request path,
    // so boot the full serving stack under the same armed plan and
    // push traffic through it. Every response must be a *well-formed
    // protocol answer* — a 2xx, a shed (429/503 + Retry-After), or a
    // rejected swap (409) — regardless of which fault is armed. Crash
    // faults may abort artifact training first; that aborted run is
    // itself the drill, so the catch is tolerated.
    let serve_drill = catch_unwind(AssertUnwindSafe(|| {
        let cfg = rapid::serve::ServeConfig {
            num_users: 20,
            num_items: 100,
            epochs: 1,
            ..rapid::serve::ServeConfig::default()
        };
        let artifact =
            std::env::temp_dir().join(format!("rapid-chaos-serve-{}.ckpt", std::process::id()));
        if rapid::serve::train_artifact(&cfg, &artifact).is_err() {
            return; // e.g. `ckpt.write=io-error`: no artifact, no server
        }
        let Ok(model) = rapid::serve::ServeModel::boot(&cfg, &artifact) else {
            return;
        };
        let state =
            std::sync::Arc::new(rapid::serve::AppState::new(model).with_artifact(artifact.clone()));
        let handle = rapid::serve::start(
            std::sync::Arc::clone(&state),
            &rapid::serve::ServerConfig::default(),
        )
        .expect("bind loopback server");
        let mut client = rapid::serve::Client::new(handle.addr());
        for (path, body) in [
            ("/events", r#"{"user": 3, "item": 5, "click": true}"#),
            ("/rerank", r#"{"user": 3}"#),
            ("/rerank", r#"{"user": 9}"#),
            ("/admin/reload", ""),
        ] {
            if let Ok(r) = client.post(path, body) {
                assert!(
                    matches!(r.status, 200 | 409 | 429 | 503),
                    "{path} answered {} under plan `{}` — not a contracted \
                     degradation status",
                    r.status,
                    std::env::var("RAPID_FAULTS").unwrap_or_default()
                );
            }
        }
        handle.stop();
        let _ = std::fs::remove_file(&artifact);
    }));
    assert!(
        serve_drill.is_ok() || counter("faults.fired_total") > fired_before,
        "the serve drill panicked without any armed fault firing"
    );

    assert!(
        counter("faults.fired_total") > fired_before,
        "the armed plan `{spec}` never fired — the drill tested nothing"
    );
    faults::clear();
    cleanup(&path);
}
