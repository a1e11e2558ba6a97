//! The benchmark's own seeded inputs: user ids, warm-up histories, the
//! `/rerank` request order and the `/events` post plan. Everything here is
//! a pure function of the seed, so one seed always yields the same
//! streams (see the tests at the bottom).

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use rapid_serve::state::HISTORY_CAP;

/// Users warmed into the store before any timing starts.
pub const WARM_USERS: usize = 120_000;

/// Events per ingest post: the load generator's default batch. Every post
/// has the same size, so every post does the same parsing work whatever
/// the seed, and the post latency has one mode to take the median of.
pub const POST_EVENTS: usize = 2000;

/// Events of each original post that go to users of the ingest pool
/// (every other event); the rest go to distinct warmed users. A chosen
/// share, not one measured from traffic: it decides only which store
/// path (insert or update) an applied event takes, and applying is about
/// 1–2% of an event's server time beside parsing (the traced
/// `serve.state.apply_us` against `serve.api.parse_events_us`).
const POOL_EVENTS: usize = POST_EVENTS / 2;

/// Users of the ingest pool. Posts take them in order and wrap around, so
/// a pool user is new the first time it is posted and updated after
/// that, and the store grows by at most this many users (plus the
/// cohort's) however many posts a run gets through.
const POOL_USERS: usize = 20_000;

/// Leading posts that are always originals. Their pool users come from a
/// part of the pool that is never reused: they form the quality cohort,
/// whose state is then fixed by these posts alone.
pub const COHORT_POSTS: usize = 4;

/// Share of ingest posts (after the first [`COHORT_POSTS`]) that re-send
/// an earlier post unchanged, as a client retrying a post whose answer it
/// lost would. A chosen share, not one measured from traffic: a re-sent
/// body is parsed in full like any other, and only its applies turn into
/// replays.
const RESEND_SHARE: f64 = 0.125;

/// Re-sends pick among this many most recent original posts, so the
/// plan's memory does not grow with the number of posts a run gets to.
const RESEND_WINDOW: usize = 8;

/// Sequence numbers of ingest events start above every warm-up sequence.
/// The load generator sends `seq: 1` to users it has never seen; warmed
/// users have already used low numbers, so the plan numbers its events
/// from one increasing counter instead.
const FIRST_INGEST_SEQ: u64 = 1_000;

/// Whether the `n`-th event of a stream is a click: the load generator's
/// rule, every third event an impression.
fn clicked(n: usize) -> bool {
    !n.is_multiple_of(3)
}

/// The SplitMix64 finaliser: a bijection on `u64`, so distinct inputs
/// give distinct ids.
pub fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A SplitMix64 stream; `stream` separates independent draws of one seed.
pub struct Rng(u64);

impl Rng {
    /// The stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(mix(seed ^ mix(stream.wrapping_add(0x51_7cc1_b727_220a))))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

/// Distinct ids: warmed users and ingest pool users come from disjoint
/// 40-bit input domains under a per-seed prefix.
fn user_id(seed: u64, domain: u64) -> u64 {
    mix((mix(seed) << 40) | domain)
}

/// The id of warmed user `i`.
pub fn warm_id(seed: u64, i: usize) -> u64 {
    user_id(seed, i as u64)
}

/// The user in slot `slot` of the ingest pool. The first
/// `COHORT_POSTS * POOL_EVENTS` slots are the cohort's and are used once;
/// later slots wrap around the [`POOL_USERS`] after them.
fn pool_id(seed: u64, slot: usize) -> u64 {
    let cohort = COHORT_POSTS * POOL_EVENTS;
    let slot = if slot < cohort {
        slot
    } else {
        cohort + (slot - cohort) % POOL_USERS
    };
    user_id(seed, (1 << 39) | slot as u64)
}

/// The quality cohort of the ingest plan: the pool users of its first
/// [`COHORT_POSTS`] posts, in order.
pub fn cohort(seed: u64) -> Vec<u64> {
    (0..COHORT_POSTS * POOL_EVENTS)
        .map(|slot| pool_id(seed, slot))
        .collect()
}

/// One planned event: `(user, item, click, seq)`.
pub type Event = (u64, usize, bool, u64);

/// The warm-up: [`WARM_USERS`] distinct users with history lengths spread
/// uniformly over `1..=HISTORY_CAP`, user by user with per-user sequence
/// numbers `1..=len`, and the load generator's click rule. Generated as
/// it is consumed, so the benchmark holds no copy of its two million
/// events beside the store.
pub fn warm_events(seed: u64, num_items: usize) -> WarmUp {
    WarmUp {
        seed,
        num_items,
        rng: Rng::new(seed, 1),
        next_user: 0,
        user: 0,
        len: 0,
        seq: 0,
        n: 0,
    }
}

/// The iterator [`warm_events`] returns.
pub struct WarmUp {
    seed: u64,
    num_items: usize,
    rng: Rng,
    /// Index of the next warmed user to start.
    next_user: usize,
    /// The current user, its history length and the last sequence given.
    user: u64,
    len: u64,
    seq: u64,
    /// Events generated so far.
    n: usize,
}

impl Iterator for WarmUp {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        if self.seq == self.len {
            if self.next_user == WARM_USERS {
                return None;
            }
            self.user = warm_id(self.seed, self.next_user);
            self.next_user += 1;
            self.len = 1 + self.rng.below(HISTORY_CAP) as u64;
            self.seq = 0;
        }
        self.seq += 1;
        let click = clicked(self.n);
        self.n += 1;
        Some((self.user, self.rng.below(self.num_items), click, self.seq))
    }
}

/// `/rerank` users for one client connection: warmed users in a seeded
/// order. `conn` separates the streams of concurrent connections.
pub struct RerankStream {
    seed: u64,
    rng: Rng,
}

impl RerankStream {
    /// The stream of connection `conn`.
    pub fn new(seed: u64, conn: u64) -> Self {
        Self {
            seed,
            rng: Rng::new(seed, 100 + conn),
        }
    }

    /// The next request's user.
    pub fn next_user(&mut self) -> u64 {
        warm_id(self.seed, self.rng.below(WARM_USERS))
    }
}

/// A `/rerank` request body for `user` (server-default `k`).
pub fn rerank_body(user: u64) -> Vec<u8> {
    format!("{{\"user\":{user}}}").into_bytes()
}

/// One planned `/events` post.
pub struct Post {
    /// The exact request body.
    pub body: Arc<Vec<u8>>,
    /// The events the body encodes, as `(user, item, click, seq)`.
    pub events: Arc<Vec<Event>>,
    /// `true` when this post re-sends an earlier one byte for byte (every
    /// event is then a replay).
    pub resend: bool,
}

/// A post body and the events it encodes.
type Original = (Arc<Vec<u8>>, Arc<Vec<Event>>);

/// The ingest plan: posts of [`POST_EVENTS`] events; after the first
/// [`COHORT_POSTS`], a seeded share re-send one of the last
/// [`RESEND_WINDOW`] originals, chosen by seed, byte for byte. As in the
/// load generator, each event of an original post goes to a different
/// user: events alternate between distinct warmed users, drawn by seed,
/// and the next users of the ingest pool. Sequence numbers come from one
/// increasing counter, so every original event is applied and every
/// re-sent one is a replay.
pub struct IngestPlan {
    seed: u64,
    num_items: usize,
    rng: Rng,
    seq: u64,
    /// Pool slots taken so far.
    pool_next: usize,
    /// The last [`RESEND_WINDOW`] original posts, for re-sends.
    originals: VecDeque<Original>,
    posts: usize,
}

impl IngestPlan {
    /// The plan of `seed` over a world of `num_items` items.
    pub fn new(seed: u64, num_items: usize) -> Self {
        Self {
            seed,
            num_items,
            rng: Rng::new(seed, 2),
            seq: FIRST_INGEST_SEQ,
            pool_next: 0,
            originals: VecDeque::with_capacity(RESEND_WINDOW),
            posts: 0,
        }
    }

    /// The next post of the plan.
    pub fn next_post(&mut self) -> Post {
        let post = self.posts;
        self.posts += 1;
        if post >= COHORT_POSTS && self.rng.chance(RESEND_SHARE) {
            let (body, events) = &self.originals[self.rng.below(self.originals.len())];
            return Post {
                body: Arc::clone(body),
                events: Arc::clone(events),
                resend: true,
            };
        }
        let mut warm = HashSet::with_capacity(POST_EVENTS - POOL_EVENTS);
        let mut events = Vec::with_capacity(POST_EVENTS);
        let mut body = String::with_capacity(POST_EVENTS * 64);
        body.push_str("{\"events\":[");
        for e in 0..POST_EVENTS {
            let user = if e % 2 == 1 {
                self.pool_next += 1;
                pool_id(self.seed, self.pool_next - 1)
            } else {
                loop {
                    let i = self.rng.below(WARM_USERS);
                    if warm.insert(i) {
                        break warm_id(self.seed, i);
                    }
                }
            };
            let item = self.rng.below(self.num_items);
            let click = clicked(e);
            self.seq += 1;
            if e > 0 {
                body.push(',');
            }
            body.push_str(&format!(
                "{{\"user\":{user},\"item\":{item},\"click\":{click},\"seq\":{}}}",
                self.seq
            ));
            events.push((user, item, click, self.seq));
        }
        body.push_str("]}");
        let body = Arc::new(body.into_bytes());
        let events = Arc::new(events);
        if self.originals.len() == RESEND_WINDOW {
            self.originals.pop_front();
        }
        self.originals
            .push_back((Arc::clone(&body), Arc::clone(&events)));
        Post {
            body,
            events,
            resend: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_identical_streams() {
        let a: Vec<Event> = warm_events(11, 300).collect();
        let b: Vec<Event> = warm_events(11, 300).collect();
        assert_eq!(a, b);
        assert!(
            warm_events(12, 300).ne(a.iter().copied()),
            "seeds must differ"
        );

        let mut ra = RerankStream::new(11, 0);
        let mut rb = RerankStream::new(11, 0);
        let mut other = RerankStream::new(11, 1);
        let sa: Vec<u64> = (0..500).map(|_| ra.next_user()).collect();
        let sb: Vec<u64> = (0..500).map(|_| rb.next_user()).collect();
        let so: Vec<u64> = (0..500).map(|_| other.next_user()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, so, "connections draw independent streams");

        let mut pa = IngestPlan::new(11, 300);
        let mut pb = IngestPlan::new(11, 300);
        for _ in 0..40 {
            let (x, y) = (pa.next_post(), pb.next_post());
            assert_eq!(x.body, y.body);
            assert_eq!((&x.events, x.resend), (&y.events, y.resend));
        }
        assert_eq!(cohort(11), cohort(11));
    }

    #[test]
    fn warm_users_are_distinct_with_spread_histories() {
        let events: Vec<Event> = warm_events(5, 300).collect();
        let mut users: Vec<u64> = events.iter().map(|e| e.0).collect();
        users.dedup();
        assert_eq!(users.len(), WARM_USERS, "runs of one user are contiguous");
        users.sort_unstable();
        users.dedup();
        assert_eq!(users.len(), WARM_USERS, "ids are distinct");
        let max_seq = events.iter().map(|e| e.3).max().unwrap();
        assert_eq!(max_seq, HISTORY_CAP as u64);
        assert!(max_seq < FIRST_INGEST_SEQ);
        let clicks = events.iter().filter(|e| e.2).count();
        assert_eq!(clicks, events.len() - events.len().div_ceil(3));
    }

    #[test]
    fn posts_follow_the_load_generators_shape() {
        let mut plan = IngestPlan::new(3, 300);
        let posts: Vec<Post> = (0..60).map(|_| plan.next_post()).collect();
        let warm: HashSet<u64> = (0..WARM_USERS).map(|i| warm_id(3, i)).collect();
        for p in &posts {
            assert_eq!(p.events.len(), POST_EVENTS);
            let mut users: Vec<u64> = p.events.iter().map(|e| e.0).collect();
            users.sort_unstable();
            users.dedup();
            assert_eq!(users.len(), POST_EVENTS, "one event per user in a post");
            let from_pool = p.events.iter().filter(|e| !warm.contains(&e.0)).count();
            assert_eq!(from_pool, POOL_EVENTS);
            let clicks = p.events.iter().filter(|e| e.2).count();
            assert_eq!(clicks, POST_EVENTS - POST_EVENTS.div_ceil(3));
        }
        let cohort = cohort(3);
        let firsts: Vec<u64> = posts[..COHORT_POSTS]
            .iter()
            .flat_map(|p| p.events.iter().map(|e| e.0))
            .filter(|u| !warm.contains(u))
            .collect();
        assert_eq!(firsts, cohort, "the cohort is the first posts' pool users");
        let later = posts[COHORT_POSTS..]
            .iter()
            .filter(|p| !p.resend)
            .flat_map(|p| p.events.iter())
            .any(|e| cohort.contains(&e.0));
        assert!(!later, "cohort users appear in no later original post");
    }

    #[test]
    fn the_pool_bounds_store_growth() {
        let mut plan = IngestPlan::new(4, 300);
        let originals = COHORT_POSTS + 2 * POOL_USERS / POOL_EVENTS;
        let mut pool = HashSet::new();
        let warm: HashSet<u64> = (0..WARM_USERS).map(|i| warm_id(4, i)).collect();
        let mut n = 0;
        while n < originals {
            let p = plan.next_post();
            if !p.resend {
                n += 1;
                pool.extend(p.events.iter().map(|e| e.0).filter(|u| !warm.contains(u)));
            }
        }
        assert_eq!(pool.len(), COHORT_POSTS * POOL_EVENTS + POOL_USERS);
    }

    #[test]
    fn resends_repeat_an_earlier_original_byte_for_byte() {
        let mut plan = IngestPlan::new(3, 300);
        let posts: Vec<Post> = (0..60).map(|_| plan.next_post()).collect();
        assert!(posts[..COHORT_POSTS].iter().all(|p| !p.resend));
        let resends: Vec<&Post> = posts.iter().filter(|p| p.resend).collect();
        assert!(!resends.is_empty());
        for r in resends {
            assert!(posts.iter().any(|p| !p.resend && p.body == r.body));
        }
    }
}
