//! The serving model: a checkpoint-loaded RAPID re-ranker plus the
//! initial ranker and generated world it scores against.
//!
//! The server never trains the re-ranker itself — it *hot-loads* a v2
//! training checkpoint (any `Checkpointer` artifact) into a
//! freshly-shaped [`Rapid`], so a crashed trainer's last atomic write
//! is exactly what the next server boot serves. [`train_artifact`]
//! produces such an artifact for benches, tests, and CI smoke runs by
//! running the normal `rapid-eval` pipeline with checkpointing on.
//!
//! The request path is initial-ranker → RAPID:
//!
//! 1. a deterministic per-user candidate set is drawn from the world,
//! 2. the initial ranker scores candidates against the user's *base
//!    profile*, blended with the live topic preference accumulated by
//!    `/events` ([`ServeConfig::pref_boost`]),
//! 3. the score-ordered list goes through
//!    [`ReRanker::rerank_batch`] — the `rapid-exec` degraded-parallel
//!    path, so serving inherits its panic-isolation ladder and
//!    `exec.degraded_requests` / `exec.fallback_requests` counters.
//!
//! Steps 2 and 3 are each guarded by the request's [`Deadline`]: a
//! budget too thin for the full path steps down the degradation ladder
//! ([`DegradeTier`]) instead of blowing it — see
//! [`ServeModel::rerank_with_budget`].

use std::io;
use std::path::Path;

use rapid_autograd::{Checkpoint, CheckpointConfig, Tape};
use rapid_core::{Rapid, RapidConfig};
use rapid_data::{generate, DataConfig, Dataset, Flavor};
use rapid_eval::{ExperimentConfig, Pipeline, RankerKind, Scale};
use rapid_rankers::{InitialRanker, SvmRank, SvmRankConfig};
use rapid_rerankers::{PreparedList, ReRanker, RerankInput};

use crate::deadline::{Deadline, DegradeTier};
use crate::state::{hash64, UserState};

/// Shape and behavior of the serving stack. Train-time and boot-time
/// configs must match: the generated world and parameter shapes derive
/// from these fields, and a checkpoint only restores into an
/// identically-shaped model.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Seed for world generation, ranker training, and model init.
    pub seed: u64,
    /// Base user profiles in the generated world (external ids map onto
    /// these, many-to-one).
    pub num_users: usize,
    /// Items in the generated world.
    pub num_items: usize,
    /// Served list length (candidates drawn per `/rerank`); must stay
    /// within the model's positional table (`RapidConfig::max_len`).
    pub list_len: usize,
    /// Weight of the live EMA topic preference in the initial score
    /// blend (0 disables online personalization).
    pub pref_boost: f32,
    /// RAPID training epochs when building an artifact.
    pub epochs: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            num_users: 60,
            num_items: 300,
            list_len: 10,
            pref_boost: 0.5,
            epochs: 2,
        }
    }
}

impl ServeConfig {
    /// The world this config generates (shared by train and boot).
    pub fn data_config(&self) -> DataConfig {
        let mut c = DataConfig::new(Flavor::Taobao);
        c.num_users = self.num_users;
        c.num_items = self.num_items;
        c.ranker_train_interactions = 1500;
        c.rerank_train_requests = 60;
        c.test_requests = 4;
        c
    }

    /// The model shape this config builds (shared by train and boot).
    pub fn rapid_config(&self) -> RapidConfig {
        let mut rc = RapidConfig::probabilistic();
        rc.seed = self.seed;
        rc.epochs = self.epochs;
        rc
    }
}

/// Trains a RAPID on the config's world with checkpointing enabled and
/// leaves the v2 artifact at `path` — the file [`ServeModel::boot`]
/// hot-loads. Runs the standard `rapid-eval` pipeline (SVMRank initial
/// ranker for speed) so the artifact is a *real* training checkpoint,
/// not a bespoke serving format.
///
/// # Errors
/// Propagates checkpoint I/O failures, and errors if training finished
/// without leaving an artifact on disk.
pub fn train_artifact(cfg: &ServeConfig, path: &Path) -> io::Result<()> {
    let mut ec = ExperimentConfig::new(Flavor::Taobao, Scale::Quick);
    ec.data = cfg.data_config();
    ec.seed = cfg.seed;
    ec.ranker = RankerKind::SvmRank;
    let pipeline = Pipeline::prepare(ec);
    let mut rapid = Rapid::new(pipeline.dataset(), cfg.rapid_config());
    let ckpt = CheckpointConfig::new(path, 1);
    rapid.fit_resumable(pipeline.dataset(), &pipeline.cache().train, &ckpt);
    if Checkpoint::load_path(path)?.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("training left no checkpoint at {}", path.display()),
        ));
    }
    Ok(())
}

/// Why a rerank request was refused before reaching the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RerankError {
    /// Requested list length exceeds the model's positional table (or
    /// the world's item count).
    ListTooLong {
        /// The largest length this server can serve.
        max: usize,
    },
    /// Requested list length was zero.
    EmptyList,
}

/// One served ranking with its per-stage wall-clock breakdown.
#[derive(Debug, Clone)]
pub struct Reranked {
    /// Item ids, best first, after RAPID re-ranking.
    pub items: Vec<usize>,
    /// The base profile the external user mapped to.
    pub base_user: usize,
    /// Initial-ranker scoring + sort.
    pub rank_ms: f64,
    /// Feature materialisation (`PreparedList::from_input`).
    pub prepare_ms: f64,
    /// RAPID inference through the degraded-parallel batch path.
    pub rerank_ms: f64,
    /// How much of the path actually ran (deadline/breaker ladder).
    pub tier: DegradeTier,
}

/// The loaded serving stack: world + initial ranker + checkpoint-loaded
/// RAPID.
pub struct ServeModel {
    cfg: ServeConfig,
    ds: Dataset,
    ranker: SvmRank,
    rapid: Rapid,
    /// Epochs the loaded artifact had completed (surfaced in
    /// `/aggregates` so smoke jobs can assert the hot-load happened).
    pub epochs_done: u64,
}

impl ServeModel {
    /// Regenerates the config's world, trains the (cheap, linear)
    /// initial ranker, and hot-loads RAPID parameters from the v2
    /// checkpoint at `path`.
    ///
    /// # Errors
    /// `NotFound` when no artifact exists at `path`; `InvalidData` when
    /// the artifact's parameter names/shapes do not match this config.
    pub fn boot(cfg: &ServeConfig, path: &Path) -> io::Result<Self> {
        let cp = Checkpoint::load_path(path)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("no checkpoint artifact at {}", path.display()),
            )
        })?;
        Self::from_checkpoint(cfg, &cp)
    }

    /// [`ServeModel::boot`] from an already-parsed checkpoint. The
    /// hot-swap path uses this to build a complete *candidate* model
    /// outside the live slot — a restore failure here can never leave
    /// the serving model partially applied, because the serving model
    /// was never touched.
    ///
    /// # Errors
    /// `InvalidData` when the checkpoint's parameter names/shapes do
    /// not match this config's model.
    pub fn from_checkpoint(cfg: &ServeConfig, cp: &Checkpoint) -> io::Result<Self> {
        let ds = generate(&cfg.data_config());
        let ranker = SvmRank::fit(
            &ds,
            &SvmRankConfig {
                epochs: 3,
                seed: cfg.seed,
                ..SvmRankConfig::default()
            },
        );
        let mut rapid = Rapid::new(&ds, cfg.rapid_config());
        rapid.restore(&cp.params)?;
        let reg = rapid_obs::global();
        reg.counter_add("serve.model_loads", 1);
        reg.gauge_set("serve.model_epochs_done", cp.epochs_done as f64);
        Ok(Self {
            cfg: cfg.clone(),
            ds,
            ranker,
            rapid,
            epochs_done: cp.epochs_done,
        })
    }

    /// Records the model's inference graph for a representative request
    /// and validates it with `rapid-check` — the hot-swap gate's proof
    /// that a candidate's restored parameters still wire into a sound
    /// computation graph.
    ///
    /// # Errors
    /// A human-readable summary of the first graph error.
    pub fn validate_graph(&self) -> Result<(), String> {
        let k = self.cfg.list_len.min(self.max_list_len()).max(1);
        let items = self.candidates(0, k);
        let init_scores = vec![0.0f32; items.len()];
        let prep = PreparedList::from_input(
            &self.ds,
            RerankInput {
                user: 0,
                items,
                init_scores,
            },
        );
        let mut tape = Tape::new();
        if self
            .rapid
            .record_graph(&self.ds, &prep, &mut tape)
            .is_none()
        {
            return Err("model recorded no inference graph".to_string());
        }
        match rapid_check::check_tape(&tape) {
            Ok(_) => Ok(()),
            Err(errors) => Err(format!(
                "{} graph error(s); first: {}",
                errors.len(),
                errors.first().map(|e| e.to_string()).unwrap_or_default()
            )),
        }
    }

    /// The serialized RAPID parameters — the byte-identity witness the
    /// hostile-checkpoint tests compare before/after a failed swap.
    pub fn params_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        // The writer is a Vec, which cannot fail.
        let _ = self.rapid.save(&mut out);
        out
    }

    /// The generated world this server scores against.
    pub fn dataset(&self) -> &Dataset {
        &self.ds
    }

    /// The serving config this model booted with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The largest list length this server can serve.
    pub fn max_list_len(&self) -> usize {
        self.rapid.config().max_len.min(self.ds.items.len())
    }

    /// The deterministic candidate set for an external user: `k`
    /// distinct items drawn by iterated SplitMix64 so the same user
    /// always sees the same candidate pool (across requests *and*
    /// process restarts — the kill-and-restart test depends on this).
    fn candidates(&self, user: u64, k: usize) -> Vec<usize> {
        let n = self.ds.items.len();
        let mut picked = Vec::with_capacity(k);
        let mut seen = vec![false; n];
        let mut x = hash64(user ^ 0x00c0_ffee);
        while picked.len() < k {
            x = hash64(x);
            let v = (x % n as u64) as usize;
            if !seen[v] {
                seen[v] = true;
                picked.push(v);
            }
        }
        picked
    }

    /// Serves one ranking: candidate draw → blended initial scoring →
    /// RAPID re-rank through the degraded batch path. `state` is the
    /// user's live `/events` state, if any (cold-start users rank from
    /// the base profile alone). Unbudgeted — internal callers (tests,
    /// swap validation) that must always take the full path.
    pub fn rerank(
        &self,
        user: u64,
        state: Option<&UserState>,
        k: usize,
    ) -> Result<Reranked, RerankError> {
        self.rerank_with_budget(user, state, k, &Deadline::unbounded(), DegradeTier::Full)
    }

    /// [`ServeModel::rerank`] under a deadline and a breaker cap.
    ///
    /// `max_tier` is the least-degraded tier the circuit breaker allows
    /// (`Full` normally, `Passthrough` when it is open); the remaining
    /// budget can only step the tier further *down* the ladder:
    ///
    /// * entry: not even an initial rank fits → passthrough (the
    ///   deterministic candidate draw order, unscored);
    /// * after the rank stage: no headroom for RAPID → blend (the
    ///   score-ordered list as-is).
    ///
    /// Degraded answers count `serve.degrade.<tier>`; the response
    /// still arrives inside the budget instead of missing it.
    ///
    /// # Errors
    /// As [`ServeModel::rerank`] — budget handling never rejects.
    pub fn rerank_with_budget(
        &self,
        user: u64,
        state: Option<&UserState>,
        k: usize,
        deadline: &Deadline,
        max_tier: DegradeTier,
    ) -> Result<Reranked, RerankError> {
        if k == 0 {
            return Err(RerankError::EmptyList);
        }
        if k > self.max_list_len() {
            return Err(RerankError::ListTooLong {
                max: self.max_list_len(),
            });
        }
        let base_user = match state {
            Some(s) => s.base_user,
            None => (hash64(user) % self.ds.users.len() as u64) as usize,
        };

        let tier = max_tier.cap(DegradeTier::for_remaining_ms(deadline.remaining_ms()));
        if tier == DegradeTier::Passthrough {
            rapid_obs::global().counter_add("serve.degrade.passthrough", 1);
            return Ok(Reranked {
                items: self.candidates(user, k),
                base_user,
                rank_ms: 0.0,
                prepare_ms: 0.0,
                rerank_ms: 0.0,
                tier,
            });
        }

        let t0 = rapid_obs::clock::now();
        let t0_us = rapid_obs::clock::wall_micros();
        let mut scored: Vec<(usize, f32)> = self
            .candidates(user, k)
            .into_iter()
            .map(|v| {
                let mut s = self.ranker.score(&self.ds, base_user, v);
                if let Some(st) = state {
                    let cov = &self.ds.items[v].coverage;
                    let live: f32 = st.pref.iter().zip(cov).map(|(p, c)| p * c).sum();
                    s += self.cfg.pref_boost * live;
                }
                (v, s)
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let items: Vec<usize> = scored.iter().map(|&(v, _)| v).collect();
        let init_scores: Vec<f32> = scored.iter().map(|&(_, s)| s).collect();
        let rank_dur = t0.elapsed();
        rapid_obs::trace::record_stage_nested("model/rank", t0_us, rank_dur);
        let rank_ms = rank_dur.as_secs_f64() * 1e3;

        // Mid-path budget check: RAPID only runs with real headroom
        // left; otherwise the blend (score-ordered) answer — already
        // computed — ships now.
        if tier.cap(DegradeTier::for_remaining_ms(deadline.remaining_ms())) != DegradeTier::Full {
            let reg = rapid_obs::global();
            reg.counter_add("serve.degrade.blend", 1);
            reg.observe("serve.stage.rank_ms", rank_ms);
            return Ok(Reranked {
                items,
                base_user,
                rank_ms,
                prepare_ms: 0.0,
                rerank_ms: 0.0,
                tier: DegradeTier::Blend,
            });
        }

        let t1 = rapid_obs::clock::now();
        let t1_us = rapid_obs::clock::wall_micros();
        let prep = PreparedList::from_input(
            &self.ds,
            RerankInput {
                user: base_user,
                items: items.clone(),
                init_scores,
            },
        );
        let prepare_dur = t1.elapsed();
        rapid_obs::trace::record_stage_nested("model/prepare", t1_us, prepare_dur);
        let prepare_ms = prepare_dur.as_secs_f64() * 1e3;

        let t2 = rapid_obs::clock::now();
        let t2_us = rapid_obs::clock::wall_micros();
        let perm = self
            .rapid
            .rerank_batch(&self.ds, std::slice::from_ref(&prep))
            .into_iter()
            .next()
            .unwrap_or_else(|| (0..prep.len()).collect());
        let rerank_dur = t2.elapsed();
        rapid_obs::trace::record_stage_nested("model/rerank", t2_us, rerank_dur);
        let rerank_ms = rerank_dur.as_secs_f64() * 1e3;

        let reg = rapid_obs::global();
        reg.observe("serve.stage.rank_ms", rank_ms);
        reg.observe("serve.stage.prepare_ms", prepare_ms);
        reg.observe("serve.stage.rerank_ms", rerank_ms);

        Ok(Reranked {
            items: perm.into_iter().map(|i| items[i]).collect(),
            base_user,
            rank_ms,
            prepare_ms,
            rerank_ms,
            tier: DegradeTier::Full,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::UserStore;

    fn tiny() -> ServeConfig {
        ServeConfig {
            num_users: 30,
            num_items: 120,
            epochs: 1,
            ..ServeConfig::default()
        }
    }

    fn artifact(dir: &std::path::Path, cfg: &ServeConfig) -> std::path::PathBuf {
        let path = dir.join("serve.ckpt");
        train_artifact(cfg, &path).expect("training must leave an artifact");
        path
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("rapid-serve-model-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn boot_requires_an_artifact() {
        let cfg = tiny();
        let missing = tmpdir("missing").join("nope.ckpt");
        let err = match ServeModel::boot(&cfg, &missing) {
            Err(e) => e,
            Ok(_) => panic!("boot without an artifact must fail"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn rerank_serves_permutations_and_live_state_moves_them() {
        let cfg = tiny();
        let dir = tmpdir("serve");
        let model = ServeModel::boot(&cfg, &artifact(&dir, &cfg)).expect("boot");
        assert!(model.epochs_done >= 1);

        let cold = model.rerank(42, None, cfg.list_len).expect("cold rerank");
        assert_eq!(cold.items.len(), cfg.list_len);
        let mut sorted = cold.items.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), cfg.list_len, "served items must be distinct");

        // Same user, same request → identical ranking (determinism).
        let again = model.rerank(42, None, cfg.list_len).expect("rerank");
        assert_eq!(cold.items, again.items);

        // Push strong topic preference through the store; the blend
        // must be able to change the initial order for some user.
        let store = UserStore::new(4, cfg.num_users, model.dataset().num_topics());
        let moved = (0u64..20).any(|u| {
            let before = model.rerank(u, None, cfg.list_len).expect("rerank");
            for _ in 0..10 {
                let top = before.items[cfg.list_len - 1];
                let cov = model.dataset().items[top].coverage.clone();
                store.apply_event(u, top, Some(&cov), None);
            }
            let st = store.get(u).expect("state exists");
            let after = model.rerank(u, Some(&st), cfg.list_len).expect("rerank");
            after.items != before.items
        });
        assert!(moved, "live preference never changed any ranking");
    }

    #[test]
    fn budget_ladder_steps_down_deterministically() {
        let cfg = tiny();
        let dir = tmpdir("ladder");
        let model = ServeModel::boot(&cfg, &artifact(&dir, &cfg)).expect("boot");
        let k = cfg.list_len;

        let full = model.rerank(7, None, k).expect("full");
        assert_eq!(full.tier, DegradeTier::Full);

        // A spent budget affords only the unscored candidate order.
        let spent = Deadline::after_wait(10, std::time::Duration::from_millis(20));
        let pass = model
            .rerank_with_budget(7, None, k, &spent, DegradeTier::Full)
            .expect("passthrough");
        assert_eq!(pass.tier, DegradeTier::Passthrough);
        assert_eq!(pass.items, model.candidates(7, k));
        assert_eq!(pass.rerank_ms, 0.0);

        // An open breaker forces passthrough even with a fat budget.
        let forced = model
            .rerank_with_budget(7, None, k, &Deadline::unbounded(), DegradeTier::Passthrough)
            .expect("forced passthrough");
        assert_eq!(forced.tier, DegradeTier::Passthrough);
        assert_eq!(forced.items, pass.items);

        // Every tier serves a permutation of the same candidate set.
        for r in [&full, &pass] {
            let mut sorted = r.items.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k);
        }
    }

    #[test]
    fn graph_validation_and_param_bytes_back_the_swap_gate() {
        let cfg = tiny();
        let dir = tmpdir("swapgate");
        let model = ServeModel::boot(&cfg, &artifact(&dir, &cfg)).expect("boot");
        model.validate_graph().expect("live graph must be sound");
        let a = model.params_bytes();
        let b = model.params_bytes();
        assert!(!a.is_empty());
        assert_eq!(a, b, "serialization must be deterministic");
    }

    #[test]
    fn oversized_and_empty_lists_are_refused() {
        let cfg = tiny();
        let dir = tmpdir("limits");
        let model = ServeModel::boot(&cfg, &artifact(&dir, &cfg)).expect("boot");
        let max = model.max_list_len();
        assert!(matches!(
            model.rerank(1, None, max + 1),
            Err(RerankError::ListTooLong { .. })
        ));
        assert!(matches!(
            model.rerank(1, None, 0),
            Err(RerankError::EmptyList)
        ));
    }
}
