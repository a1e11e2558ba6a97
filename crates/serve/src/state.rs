//! Live per-user serving state: a sharded, lock-striped store keyed by
//! external user id.
//!
//! External ids are arbitrary `u64`s from clients — the store maps each
//! onto a *base profile* of the generated world (stable hash modulo the
//! dataset's user count) and layers mutable online state on top: a
//! capped recent-item history, an EMA topic-preference vector updated
//! from clicked items' coverage rows, and a replay cursor. `/events`
//! writes this state; `/rerank` reads it and blends the live preference
//! into the initial-ranker scores, so ingested behavior genuinely moves
//! subsequent rankings.
//!
//! Sharding bounds contention under the open-loop load harness: each
//! external id hashes to one of [`UserStore`]'s `RwLock`ed shard maps,
//! so concurrent requests for different users rarely collide. All
//! hashing is [`hash64`] (SplitMix64) — deterministic across processes,
//! which the kill-and-restart test relies on.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;

/// Recent items retained per user; older entries are evicted FIFO.
pub const HISTORY_CAP: usize = 32;

/// EMA step for the live topic-preference vector: one click moves the
/// preference 30% of the way toward the clicked item's coverage row.
const PREF_ALPHA: f32 = 0.3;

/// SplitMix64: a stable, seedless 64-bit mixer. Used for user→shard and
/// user→base-profile mapping so placements replay identically across
/// process restarts (std's `DefaultHasher` is randomly keyed).
pub fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mutable online state for one external user.
#[derive(Debug, Clone)]
pub struct UserState {
    /// Index of the base profile in the generated dataset.
    pub base_user: usize,
    /// EMA topic-preference over clicked items' coverage rows (all
    /// zeros until the first click).
    pub pref: Vec<f32>,
    /// Recent item ids, oldest first, capped at [`HISTORY_CAP`].
    pub history: Vec<u32>,
    /// Events applied to this user (replays excluded).
    pub events: u64,
    /// Highest event sequence number applied so far.
    pub last_seq: u64,
}

/// What [`UserStore::apply_event`] did with an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventOutcome {
    /// State was updated.
    Applied,
    /// The event's `seq` was at or behind the user's cursor — a replayed
    /// delivery; state is unchanged.
    Replayed,
}

/// The sharded user store.
#[derive(Debug)]
pub struct UserStore {
    shards: Vec<RwLock<HashMap<u64, UserState>>>,
    len: AtomicUsize,
    num_topics: usize,
    num_base_users: usize,
}

impl UserStore {
    /// A store with `shards` lock stripes, mapping external users onto
    /// `num_base_users` base profiles with `num_topics`-dim preferences.
    pub fn new(shards: usize, num_base_users: usize, num_topics: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            len: AtomicUsize::new(0),
            num_topics,
            num_base_users: num_base_users.max(1),
        }
    }

    /// The base-profile index an external id maps to (stable).
    pub fn base_user(&self, user: u64) -> usize {
        (hash64(user) % self.num_base_users as u64) as usize
    }

    fn shard(&self, user: u64) -> &RwLock<HashMap<u64, UserState>> {
        // A second mix decorrelates shard choice from base-profile
        // choice.
        let i = (hash64(user ^ 0x5eed) % self.shards.len() as u64) as usize;
        &self.shards[i]
    }

    /// Applies one behavior event. `clicked_coverage` is the item's
    /// topic-coverage row when the event was a click (`None` for plain
    /// impressions, which only extend the history). `seq`, when present,
    /// enables replay detection: an event at or behind the user's cursor
    /// is dropped as [`EventOutcome::Replayed`].
    pub fn apply_event(
        &self,
        user: u64,
        item: usize,
        clicked_coverage: Option<&[f32]>,
        seq: Option<u64>,
    ) -> EventOutcome {
        let base_user = self.base_user(user);
        let mut shard = match self.shard(user).write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let state = shard.entry(user).or_insert_with(|| {
            self.len.fetch_add(1, Ordering::Relaxed);
            UserState {
                base_user,
                pref: vec![0.0; self.num_topics],
                history: Vec::new(),
                events: 0,
                last_seq: 0,
            }
        });
        if let Some(s) = seq {
            if state.events > 0 && s <= state.last_seq {
                return EventOutcome::Replayed;
            }
            state.last_seq = s;
        }
        state.events += 1;
        // Item ids index the world's catalogue, which stays far below
        // `u32::MAX` items; an id past it is left out of the history
        // rather than truncated onto another item.
        if let Ok(item) = u32::try_from(item) {
            if state.history.len() >= HISTORY_CAP {
                state.history.remove(0);
            }
            state.history.push(item);
        }
        if let Some(cov) = clicked_coverage {
            for (p, &c) in state.pref.iter_mut().zip(cov) {
                *p = (1.0 - PREF_ALPHA) * *p + PREF_ALPHA * c;
            }
        }
        EventOutcome::Applied
    }

    /// A copy of one user's state, if any events arrived for them.
    pub fn get(&self, user: u64) -> Option<UserState> {
        let shard = match self.shard(user).read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        shard.get(&user).cloned()
    }

    /// Number of distinct users holding state.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// `true` when no user holds state.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> UserStore {
        UserStore::new(8, 40, 5)
    }

    #[test]
    fn events_create_state_and_update_preference() {
        let s = store();
        assert!(s.is_empty());
        assert_eq!(
            s.apply_event(7, 3, Some(&[1.0, 0.0, 0.0, 0.0, 0.0]), Some(1)),
            EventOutcome::Applied
        );
        let u = s.get(7).unwrap();
        assert_eq!(u.history, vec![3]);
        assert_eq!(u.events, 1);
        assert!((u.pref[0] - 0.3).abs() < 1e-6, "EMA step toward coverage");
        assert_eq!(s.len(), 1);
        assert!(s.get(8).is_none());
    }

    #[test]
    fn replayed_sequence_numbers_do_not_mutate_state() {
        let s = store();
        s.apply_event(7, 3, None, Some(5));
        assert_eq!(s.apply_event(7, 4, None, Some(5)), EventOutcome::Replayed);
        assert_eq!(s.apply_event(7, 4, None, Some(2)), EventOutcome::Replayed);
        let u = s.get(7).unwrap();
        assert_eq!(u.history, vec![3], "replay must not extend history");
        assert_eq!(u.events, 1);
        assert_eq!(s.apply_event(7, 4, None, Some(6)), EventOutcome::Applied);
        assert_eq!(s.get(7).unwrap().history, vec![3, 4]);
    }

    #[test]
    fn history_is_capped() {
        let s = store();
        for i in 0..(HISTORY_CAP + 10) {
            s.apply_event(1, i, None, None);
        }
        let u = s.get(1).unwrap();
        assert_eq!(u.history.len(), HISTORY_CAP);
        assert_eq!(u.history[0], 10, "oldest items evicted first");
        assert_eq!(u.events, (HISTORY_CAP + 10) as u64);
    }

    #[test]
    fn item_ids_past_u32_are_left_out_of_the_history() {
        let s = store();
        s.apply_event(1, 3, None, None);
        if let Ok(big) = usize::try_from(u64::from(u32::MAX) + 1) {
            assert_eq!(s.apply_event(1, big, None, None), EventOutcome::Applied);
            let u = s.get(1).unwrap();
            assert_eq!(u.history, vec![3], "not truncated onto item 0");
            assert_eq!(u.events, 2);
        }
    }

    #[test]
    fn base_user_mapping_is_stable_and_in_range() {
        let s = store();
        for user in [0u64, 1, 99, u64::MAX] {
            let b = s.base_user(user);
            assert!(b < 40);
            assert_eq!(b, s.base_user(user), "mapping must be deterministic");
        }
    }

    #[test]
    fn concurrent_writers_count_distinct_users_exactly() {
        let s = UserStore::new(4, 10, 3);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let s = &s;
                scope.spawn(move || {
                    for u in 0..100u64 {
                        s.apply_event(t * 100 + u, 0, None, None);
                    }
                });
            }
        });
        assert_eq!(s.len(), 400);
    }
}
