//! Leap-style stride prefetching over the pagein trace.
//!
//! Remote memory hides disk seeks but still pays a full network round
//! trip per fault. Leap (Al Maruf & Chowdhury, ATC '20) showed that a
//! *majority-vote* stride detector over the recent fault history finds
//! the dominant access stride even when interleaved with noise, that
//! prefetching along that stride hides most of the remaining latency,
//! and that the window should be sized by how the last one did.
//! [`StrideDetector`] is that detector, [`Planner`] the vote plus the
//! adaptive depth and a successor table, and [`PrefetchCache`] the small
//! bounded cache a pager serves prefetched pages from.
//!
//! The vote rightly ignores one jump, but a jump that repeats — a sweep
//! wrapping back to where it started, ten times before it moves on — is
//! a miss each time. So the planner also keeps a table of 64 rows,
//! indexed by page, of the page that followed each fault; once the same
//! page has followed twice running, a fault there plans it too, after
//! the stride's pages, and one wrong guess unconfirms it.
//!
//! The same table says which pages the stream loops through
//! ([`Planner::loops`]): a page with a confirmed successor will be
//! faulted again on the next lap. A sweep restarts its window at one
//! page, so the page it starts on would miss; instead, once such a
//! page's pageout is acknowledged, its read follows its write on the
//! same connection — *read-behind*, a plain read-ahead of one page — and
//! the next lap finds it cached. A random stream confirms nothing, so
//! nothing is read behind there.
//!
//! A sweep can still restart on a miss — its first page was dropped
//! clean, or written back long ago — and a refill planned once the miss
//! is served leaves a round trip behind it: Leap counts a prefetch only
//! when it arrives before its fault. So a miss on a page the stream has
//! looped through ([`Planner::recurs`]), a sweep it has learnt, is told
//! to the planner before it waits for its demand read, and its refill
//! rides beside that read.
//!
//! The *decision* to read ahead is taken once per fault stream, the
//! *copies* are kept where the pages live: a `ShardedPager` owns one
//! planner for all its shards and tells it every served demand fault.
//! The planner answers nothing or a [`Plan`]; whichever shard holds a
//! planned page fetches it with a plain keyed read into its own cache,
//! and a later fault that lands on it is served without touching the
//! wire.
//!
//! # Examples
//!
//! ```
//! use rmp_core::prefetch::{Planner, PrefetchCache, StrideDetector};
//! use rmp_types::{Page, PageId};
//!
//! // A sequential fault trace: the majority vote locks on stride 1.
//! let mut stride = StrideDetector::new();
//! let mut detected = None;
//! for i in 0..10 {
//!     detected = stride.observe(PageId(i));
//! }
//! assert_eq!(detected, Some(1));
//!
//! // The planner starts a run with one page and doubles on success.
//! let mut planner = Planner::new(8);
//! let mut depths = Vec::new();
//! for i in 0..6 {
//!     let plan = planner.plan(PageId(i), i > 2, |_next| true);
//!     depths.extend(plan.map(|p| p.pages(PageId(i)).count()));
//! }
//! assert_eq!(depths, [1, 2, 4, 8]);
//!
//! // A sweep of 1..=8 that keeps wrapping: once the jump 8 → 1 has been
//! // seen twice, page 8 plans page 1 after its stride pages.
//! let mut planner = Planner::new(8);
//! let mut wrap = None;
//! for _ in 0..3 {
//!     for i in 1..=8 {
//!         wrap = planner.plan(PageId(i), true, |_next| true).and_then(|p| p.then);
//!     }
//! }
//! assert_eq!(wrap, Some(PageId(1)));
//!
//! // The cache hands each prefetched page out exactly once.
//! let mut cache = PrefetchCache::new(4);
//! cache.insert(PageId(10), Page::filled(1));
//! assert!(cache.contains(PageId(10)));
//! assert!(cache.take(PageId(10)).is_some());
//! assert!(cache.take(PageId(10)).is_none());
//! ```

use std::collections::VecDeque;

use rmp_types::{Page, PageId};

/// Fault-history window the majority vote runs over. Leap uses a small
/// constant window; 8 deltas means a stride must win ≥ 5 votes, so up to
/// 3 interleaved noise faults cannot break a sequential run.
const HISTORY_WINDOW: usize = 8;

/// Majority-vote stride detector over the demand-pagein address trace.
///
/// Keeps the last `HISTORY_WINDOW` (8) inter-fault deltas; a delta held by
/// a strict majority of the window is the detected stride. This is
/// deliberately more robust than last-two-faults stride detection: one
/// out-of-stride fault (an interleaved random lookup, a maintenance
/// read) does not reset a long sequential run.
#[derive(Debug, Default)]
pub struct StrideDetector {
    /// Most recent faulting page, the base new deltas are measured from.
    last: Option<PageId>,
    /// Recent inter-fault deltas, oldest first.
    deltas: VecDeque<i64>,
}

impl StrideDetector {
    /// Creates an empty detector.
    pub fn new() -> Self {
        StrideDetector::default()
    }

    /// Feeds one demand fault and returns the majority stride, if the
    /// window currently has one. A stride of zero (repeated faults on
    /// the same page) never triggers prefetching.
    pub fn observe(&mut self, id: PageId) -> Option<i64> {
        if let Some(last) = self.last {
            let delta = id.0 as i64 - last.0 as i64;
            if self.deltas.len() == HISTORY_WINDOW {
                self.deltas.pop_front();
            }
            self.deltas.push_back(delta);
        }
        self.last = Some(id);
        self.majority()
    }

    /// The stride held by a strict majority of the current window.
    fn majority(&self) -> Option<i64> {
        if self.deltas.len() < 2 {
            return None;
        }
        // Boyer–Moore majority vote, then a verification pass — O(window)
        // with no allocation, and the window is 8 entries.
        let mut candidate = 0i64;
        let mut count = 0usize;
        for &d in &self.deltas {
            if count == 0 {
                candidate = d;
                count = 1;
            } else if d == candidate {
                count += 1;
            } else {
                count -= 1;
            }
        }
        let votes = self.deltas.iter().filter(|&&d| d == candidate).count();
        (candidate != 0 && votes * 2 > self.deltas.len()).then_some(candidate)
    }

    /// Forgets all history (the pager calls this when the address space
    /// mutates underneath the trace, e.g. after a crash recovery).
    pub fn reset(&mut self) {
        self.last = None;
        self.deltas.clear();
    }
}

/// Entries in the successor table. Direct-mapped by page: a set of
/// repeating jumps larger than this evicts itself and plans nothing.
const SUCCESSORS: usize = 64;

/// What a [`Planner`] asks for: the next `depth` pages along `stride`,
/// then the page that has followed the fault twice running.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan {
    /// The majority stride, in pages.
    pub stride: i64,
    /// Pages to fetch along `stride`; zero when the plan is only `then`.
    pub depth: usize,
    /// The fault's confirmed successor, unless it is one stride on.
    pub then: Option<PageId>,
}

impl Plan {
    /// The planned pages, nearest along the stride first and the
    /// successor last, counted from the fault at `from`; the stride is
    /// cut short where the page space ends.
    pub fn pages(self, from: PageId) -> impl Iterator<Item = PageId> + Clone {
        let along = (1..=self.depth as i64).map_while(move |step| {
            let next = (from.0 as i64).checked_add(self.stride.checked_mul(step)?)?;
            (next >= 0).then_some(PageId(next as u64))
        });
        along.chain(self.then)
    }
}

/// The decision to read ahead: one stride vote over a whole fault
/// stream, and Leap's window — a run starts with one page and doubles
/// each time a read-ahead hit finds the runway used up, so a guess costs
/// one page until it has paid off and a long run reaches the cap in
/// four refills.
///
/// Next to the vote, a successor table plans a jump the vote rightly
/// ignores, once that jump has repeated: a sweep's wrap, say.
///
/// Pure: it is told whether the runway is gone, and neither holds pages
/// nor touches a wire.
#[derive(Debug)]
pub struct Planner {
    votes: StrideDetector,
    /// Rows of `(page, the fault that followed it last time, whether it
    /// did the time before too, whether any successor of it has been
    /// confirmed since the row was its)`, at `page % SUCCESSORS`.
    successors: [Option<(PageId, PageId, bool, bool)>; SUCCESSORS],
    /// The confirmed successor of the last fault, planned or covered.
    jump: Option<PageId>,
    /// [`rmp_types::PagerConfig::prefetch_window`]: the deepest plan;
    /// zero plans nothing.
    cap: usize,
    /// The depth of the run's last plan; zero after a miss.
    depth: usize,
}

impl Planner {
    /// Creates a planner whose plans are at most `cap` pages deep.
    pub fn new(cap: usize) -> Self {
        Planner {
            votes: StrideDetector::new(),
            successors: [None; SUCCESSORS],
            jump: None,
            cap,
            depth: 0,
        }
    }

    /// Feeds one served demand fault — whether read-ahead served it is
    /// `hit` — and plans the fault's confirmed successor, if it has one,
    /// and the refill, if there is a stride and `runway_gone` says the
    /// page one stride on is neither cached nor on its way. While it is,
    /// topping up one page per fault would pay a submission per pagein
    /// for nothing.
    pub fn plan(
        &mut self,
        id: PageId,
        hit: bool,
        runway_gone: impl FnOnce(PageId) -> bool,
    ) -> Option<Plan> {
        if self.cap == 0 {
            return None;
        }
        if let Some(last) = self.votes.last.filter(|&last| last != id) {
            self.learn(last, id);
        }
        // Landing on the successor just planned starts a new sweep, as a
        // miss does: a window doubled on the old one would reach into
        // pages the VM still holds dirty. So a loop the table has learnt
        // reads one page ahead.
        if !hit || self.jump == Some(id) {
            self.depth = 0;
        }
        let vote = self.votes.observe(id);
        let ahead = vote.and_then(|stride| id.0.checked_add_signed(stride).map(PageId));
        self.jump = self.successor(id);
        let depth = if ahead.is_some_and(runway_gone) {
            self.depth = (self.depth * 2).clamp(1, self.cap);
            self.depth
        } else {
            0
        };
        // One stride on, the stride plans the page or has it already.
        let then = self.jump.filter(|&then| Some(then) != ahead);
        let plan = Plan {
            stride: vote.unwrap_or(0),
            depth,
            then,
        };
        (depth > 0 || then.is_some()).then_some(plan)
    }

    /// Records that `next` followed `page`: confirmed if it did last time
    /// too, otherwise a fresh guess in place of whatever the row held.
    fn learn(&mut self, page: PageId, next: PageId) {
        let row = &mut self.successors[page.0 as usize % SUCCESSORS];
        let confirmed = row.is_some_and(|(at, then, ..)| (at, then) == (page, next));
        let looped = confirmed || row.is_some_and(|(at, .., looped)| at == page && looped);
        *row = Some((page, next, confirmed, looped));
    }

    /// The confirmed successor of `page`, if its row holds one.
    fn successor(&self, page: PageId) -> Option<PageId> {
        let (at, next, confirmed, _) = self.successors[page.0 as usize % SUCCESSORS]?;
        (at == page && confirmed).then_some(next)
    }

    /// Whether `page` has looped since the table last took its row in:
    /// some successor of it repeated, if not the last one.
    pub fn recurs(&self, page: PageId) -> bool {
        let row = self.successors[page.0 as usize % SUCCESSORS];
        self.cap > 0 && row.is_some_and(|(at, .., looped)| at == page && looped)
    }

    /// Whether `page` sits in a loop the fault stream has repeated: it
    /// has a confirmed successor, so the next lap will fault it again.
    /// A pageout of such a page is read back behind its write.
    pub fn loops(&self, page: PageId) -> bool {
        self.cap > 0 && self.successor(page).is_some()
    }

    /// Forgets the trace, the run and the successors (placement changed
    /// wholesale, as after a crash recovery).
    pub fn reset(&mut self) {
        self.votes.reset();
        self.successors = [None; SUCCESSORS];
        self.jump = None;
        self.depth = 0;
    }
}

/// A bounded FIFO cache of prefetched pages.
///
/// Entries are inserted by the prefetcher and consumed (removed) by the
/// first demand fault that hits them — a prefetched page is served at
/// most once, so staleness cannot outlive one use. Writes and frees
/// invalidate their entry immediately. When full, inserting evicts the
/// oldest entry. Each call that drops entries unread returns how many:
/// those are *useless* prefetches, which the caller counts so the
/// hit-rate metrics expose a misbehaving predictor instead of hiding it.
#[derive(Debug)]
pub struct PrefetchCache {
    /// Insertion order, oldest first.
    order: VecDeque<PageId>,
    /// The cached pages keyed by id; small enough that linear scans of
    /// `order` stay cheap.
    pages: std::collections::HashMap<PageId, Page>,
    capacity: usize,
}

impl PrefetchCache {
    /// Creates a cache holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        PrefetchCache {
            order: VecDeque::new(),
            pages: std::collections::HashMap::new(),
            capacity,
        }
    }

    /// Pages currently cached.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Whether `id` is currently cached (without consuming it).
    pub fn contains(&self, id: PageId) -> bool {
        self.pages.contains_key(&id)
    }

    /// Inserts a prefetched page, evicting the oldest entry when full.
    /// Re-inserting an id refreshes its contents in place. Returns the
    /// pages dropped unread: those evicted, the copy refreshed, or `page`
    /// itself when the cache holds nothing.
    pub fn insert(&mut self, id: PageId, page: Page) -> u64 {
        if self.capacity == 0 {
            return 1;
        }
        if self.pages.insert(id, page).is_some() {
            return 1; // Already queued; contents refreshed.
        }
        self.order.push_back(id);
        let mut dropped = 0;
        while self.pages.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                dropped += u64::from(self.pages.remove(&old).is_some());
            }
        }
        dropped
    }

    /// Consumes the cached page for `id`, if present. Each prefetched
    /// page serves at most one hit.
    pub fn take(&mut self, id: PageId) -> Option<Page> {
        let page = self.pages.remove(&id)?;
        self.order.retain(|&k| k != id);
        Some(page)
    }

    /// Drops the entry for `id` — called on every `page_out` and `free`,
    /// where the cached copy would otherwise go stale. Returns the pages
    /// dropped unread: 1 if it was cached, else 0.
    pub fn invalidate(&mut self, id: PageId) -> u64 {
        let cached = self.pages.remove(&id).is_some();
        if cached {
            self.order.retain(|&k| k != id);
        }
        u64::from(cached)
    }

    /// Drops everything. Returns the pages dropped unread.
    pub fn clear(&mut self) -> u64 {
        let dropped = self.pages.len() as u64;
        self.pages.clear();
        self.order.clear();
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(det: &mut StrideDetector, ids: &[u64]) -> Option<i64> {
        let mut out = None;
        for &i in ids {
            out = det.observe(PageId(i));
        }
        out
    }

    #[test]
    fn sequential_run_detects_stride_one() {
        let mut det = StrideDetector::new();
        assert_eq!(feed(&mut det, &[10, 11, 12, 13]), Some(1));
    }

    #[test]
    fn strided_run_detects_its_stride() {
        let mut det = StrideDetector::new();
        assert_eq!(feed(&mut det, &[0, 4, 8, 12, 16]), Some(4));
    }

    #[test]
    fn backward_stride_is_detected() {
        let mut det = StrideDetector::new();
        assert_eq!(feed(&mut det, &[100, 98, 96, 94]), Some(-2));
    }

    #[test]
    fn majority_survives_interleaved_noise() {
        let mut det = StrideDetector::new();
        // A sequential run with one random fault in the middle: the
        // majority vote keeps the stride where last-two detection would
        // have reset.
        assert_eq!(feed(&mut det, &[10, 11, 12, 500, 13, 14, 15]), Some(1));
    }

    #[test]
    fn random_trace_detects_nothing() {
        let mut det = StrideDetector::new();
        assert_eq!(feed(&mut det, &[7, 92, 3, 41, 88, 15]), None);
    }

    #[test]
    fn repeated_faults_on_one_page_never_prefetch() {
        let mut det = StrideDetector::new();
        assert_eq!(feed(&mut det, &[5, 5, 5, 5, 5]), None, "zero stride");
    }

    #[test]
    fn window_slides_to_the_new_pattern() {
        let mut det = StrideDetector::new();
        feed(&mut det, &[0, 1, 2, 3, 4, 5]);
        // Enough faults at the new stride outvote the old window.
        assert_eq!(
            feed(&mut det, &[100, 108, 116, 124, 132, 140, 148]),
            Some(8)
        );
    }

    #[test]
    fn reset_forgets_history() {
        let mut det = StrideDetector::new();
        feed(&mut det, &[0, 1, 2, 3]);
        det.reset();
        assert_eq!(det.observe(PageId(4)), None);
        assert_eq!(det.observe(PageId(5)), None, "one delta is no majority");
    }

    /// A fault that missed, one that hit and found the runway gone, and
    /// one that hit with the next page still ahead: `(hit, runway_gone)`.
    const MISS: (bool, bool) = (false, true);
    const HIT: (bool, bool) = (true, true);
    const AHEAD: (bool, bool) = (true, false);

    /// The depth planned at each fault of a sequential run (0: no plan).
    fn depths(cap: usize, run: &[(bool, bool)]) -> Vec<usize> {
        let mut planner = Planner::new(cap);
        let faults = (0..).map(PageId).zip(run);
        let plans = faults.map(|(id, &(hit, gone))| planner.plan(id, hit, |_| gone));
        plans.map(|plan| plan.map_or(0, |p| p.depth)).collect()
    }

    #[test]
    fn depth_doubles_on_hits_and_restarts_at_one_after_a_miss() {
        // Two faults make no majority; the third plans one page.
        let run = [MISS, MISS, MISS, HIT, HIT, HIT, HIT, MISS, HIT];
        assert_eq!(depths(8, &run), [0, 0, 1, 2, 4, 8, 8, 1, 2]);
    }

    #[test]
    fn depth_grows_only_when_the_runway_is_gone() {
        let run = [MISS, MISS, MISS, HIT, AHEAD, AHEAD, HIT];
        assert_eq!(depths(8, &run), [0, 0, 1, 2, 0, 0, 4]);
    }

    #[test]
    fn depth_never_exceeds_the_cap() {
        let run = [MISS, MISS, MISS, HIT, HIT, HIT, HIT];
        assert_eq!(depths(3, &run), [0, 0, 1, 2, 3, 3, 3]);
    }

    #[test]
    fn a_zero_window_never_plans() {
        assert_eq!(depths(0, &[HIT; 12]), [0; 12]);
    }

    #[test]
    fn a_random_trace_plans_nothing() {
        let mut planner = Planner::new(8);
        for id in [7, 92, 3, 41, 88, 15, 60, 2] {
            assert_eq!(planner.plan(PageId(id), false, |_| true), None);
        }
    }

    /// Feeds `trace` as read-ahead hits with the runway gone; the
    /// successor each fault planned.
    fn thens(planner: &mut Planner, trace: impl IntoIterator<Item = u64>) -> Vec<Option<PageId>> {
        let plans = trace
            .into_iter()
            .map(|id| planner.plan(PageId(id), true, |_| true));
        plans.map(|plan| plan.and_then(|p| p.then)).collect()
    }

    #[test]
    fn a_repeated_wrap_is_planned_once_seen_twice() {
        let mut planner = Planner::new(8);
        assert_eq!(thens(&mut planner, 1..=8), [None; 8]);
        assert_eq!(thens(&mut planner, 1..=8), [None; 8], "the wrap seen once");
        // Along the sweep the successor is one stride on: the stride has it.
        let mut third = vec![None; 7];
        third.push(Some(PageId(1)));
        assert_eq!(thens(&mut planner, 1..=8), third);
    }

    #[test]
    fn a_single_jump_plans_nothing_and_one_wrong_guess_unconfirms() {
        let mut planner = Planner::new(8);
        let trace = (1..=8).chain(20..=28).chain(1..=8);
        assert!(thens(&mut planner, trace).iter().all(Option::is_none));
        let mut planner = Planner::new(8);
        let learnt = thens(&mut planner, (1..=8).cycle().take(24));
        assert_eq!(learnt[23], Some(PageId(1)));
        // The wrap lands on 5 once: back on 1, it must be seen twice again.
        let trace = (5..=8).chain(1..=8);
        assert!(thens(&mut planner, trace).iter().all(Option::is_none));
    }

    #[test]
    fn a_hit_on_the_planned_successor_restarts_depth_at_one() {
        let mut planner = Planner::new(8);
        let trace = (1..=8).cycle().take(32);
        let plans = trace.map(|id| planner.plan(PageId(id), true, |_| true));
        let depths: Vec<usize> = plans.map(|plan| plan.map_or(0, |p| p.depth)).collect();
        assert_eq!(depths[..8], [0, 0, 1, 2, 4, 8, 8, 8]);
        // Once learnt, every fault of the loop lands on the successor just
        // planned, the wrap to 1 too: each starts a sweep at one page.
        assert_eq!(depths[24..], [1; 8]);
    }

    #[test]
    fn reset_forgets_the_successors() {
        let mut planner = Planner::new(8);
        thens(&mut planner, (1..=8).cycle().take(24));
        planner.reset();
        assert_eq!(thens(&mut planner, 1..=8), [None; 8]);
    }

    #[test]
    fn a_uniform_trace_seldom_plans_a_successor() {
        let mut planner = Planner::new(8);
        let mut planned = 0;
        for id in uniform(0x9e37_79b9_7f4a_7c15, 4096).take(100_000) {
            let plan = planner.plan(PageId(id), false, |_| true);
            planned += usize::from(plan.is_some_and(|p| p.then.is_some()));
        }
        assert!(
            planned < 100,
            "{planned} of 100,000 faults planned a successor"
        );
    }

    /// xorshift64 from `seed`: a uniform stream of pages below `pages`.
    fn uniform(seed: u64, pages: u64) -> impl Iterator<Item = u64> {
        let mut x = seed;
        std::iter::repeat_with(move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % pages
        })
    }

    /// Feeds `trace` as misses; the pages below 8,192 the planner then
    /// says loop.
    fn looping(planner: &mut Planner, trace: impl IntoIterator<Item = u64>) -> Vec<u64> {
        for id in trace {
            planner.plan(PageId(id), false, |_| true);
        }
        (0..8192).filter(|&id| planner.loops(PageId(id))).collect()
    }

    #[test]
    fn a_sweep_loops_once_it_has_repeated() {
        let mut planner = Planner::new(8);
        assert_eq!(looping(&mut planner, 1..=8), [], "one lap");
        // Two laps confirm every step along the sweep; the wrap 8 → 1,
        // seen once, is confirmed by the third lap's first fault.
        assert_eq!(looping(&mut planner, 1..=8), [1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(looping(&mut planner, [1]), [1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(!Planner::new(0).loops(PageId(1)), "no window, no loop");
    }

    /// The pages below 8,192 the planner says recur.
    fn recurring(planner: &Planner) -> Vec<u64> {
        (0..8192).filter(|&id| planner.recurs(PageId(id))).collect()
    }

    #[test]
    fn a_page_that_looped_recurs_until_another_takes_its_row() {
        let mut planner = Planner::new(8);
        looping(&mut planner, [1, 2, 1, 2, 1]);
        assert!(planner.loops(PageId(1)) && planner.recurs(PageId(1)));
        // Followed by 3 now, it has no confirmed successor, and still
        // recurs: it has looped.
        looping(&mut planner, [3]);
        assert!(!planner.loops(PageId(1)) && planner.recurs(PageId(1)));
        // A page of the same row is followed by another: 1 is forgotten.
        looping(&mut planner, [1 + SUCCESSORS as u64, 5]);
        assert_eq!(recurring(&planner), [2]);
        assert!(!Planner::new(0).recurs(PageId(2)), "no window, no loop");
    }

    #[test]
    fn a_uniform_stream_loops_nowhere() {
        let mut planner = Planner::new(8);
        let trace: Vec<u64> = uniform(0x9e37_79b9_7f4a_7c15, 4096).take(20_000).collect();
        assert_eq!(looping(&mut planner, trace), []);
        assert_eq!(recurring(&planner), []);
    }

    #[test]
    fn two_interleaved_random_streams_loop_nowhere() {
        let mut planner = Planner::new(8);
        let (a, b) = (uniform(7, 4096), uniform(11, 4096).map(|p| p + 4096));
        let trace: Vec<u64> = a.zip(b).flat_map(|(a, b)| [a, b]).take(20_000).collect();
        assert_eq!(looping(&mut planner, trace), []);
        assert_eq!(recurring(&planner), []);
    }

    #[test]
    fn a_plan_stops_where_the_page_space_ends() {
        let pages = |stride, depth, then| {
            let plan = Plan {
                stride,
                depth,
                then,
            };
            plan.pages(PageId(5)).map(|p| p.0).collect::<Vec<_>>()
        };
        assert_eq!(pages(-2, 4, None), [3, 1]);
        assert_eq!(pages(3, 2, None), [8, 11]);
        // The successor comes after the stride's pages.
        assert_eq!(pages(3, 2, Some(PageId(1))), [8, 11, 1]);
        assert_eq!(pages(0, 0, Some(PageId(1))), [1], "successor only");
    }

    #[test]
    fn cache_serves_each_entry_once() {
        let mut cache = PrefetchCache::new(4);
        assert_eq!(cache.insert(PageId(1), Page::deterministic(1)), 0);
        assert!(cache.contains(PageId(1)));
        assert_eq!(cache.take(PageId(1)), Some(Page::deterministic(1)));
        assert_eq!(cache.take(PageId(1)), None, "consumed on first hit");
        assert_eq!(cache.clear(), 0, "a page served is not useless");
    }

    #[test]
    fn cache_evicts_oldest_and_counts_useless() {
        let mut cache = PrefetchCache::new(2);
        assert_eq!(cache.insert(PageId(1), Page::deterministic(1)), 0);
        assert_eq!(cache.insert(PageId(2), Page::deterministic(2)), 0);
        let evicted = cache.insert(PageId(3), Page::deterministic(3));
        assert!(!cache.contains(PageId(1)), "oldest evicted");
        assert_eq!(cache.len(), 2);
        assert_eq!(evicted, 1, "evicted-unused counts useless");
        let refreshed = cache.insert(PageId(3), Page::deterministic(4));
        assert_eq!(refreshed, 1, "a copy refreshed unread counts useless");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn invalidation_counts_useless() {
        let mut cache = PrefetchCache::new(4);
        cache.insert(PageId(1), Page::deterministic(1));
        assert_eq!(cache.invalidate(PageId(1)), 1);
        assert!(!cache.contains(PageId(1)));
        // Invalidating an absent id is a no-op.
        assert_eq!(cache.invalidate(PageId(99)), 0);
    }

    #[test]
    fn zero_capacity_cache_stays_empty() {
        let mut cache = PrefetchCache::new(0);
        assert_eq!(cache.insert(PageId(1), Page::deterministic(1)), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.take(PageId(1)), None);
    }

    #[test]
    fn clear_counts_remaining_entries_useless() {
        let mut cache = PrefetchCache::new(4);
        cache.insert(PageId(1), Page::deterministic(1));
        cache.insert(PageId(2), Page::deterministic(2));
        assert_eq!(cache.clear(), 2);
        assert!(cache.is_empty());
    }
}
