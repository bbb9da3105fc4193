//! Integer-keyed event queues: the bucket "ladder" behind the hot
//! scheduling path, and the binary-heap reference it is checked against.
//!
//! # Why a bucket queue works here
//!
//! Both executors in this crate schedule events whose keys satisfy two
//! structural properties (see the proofs sketched in DESIGN.md):
//!
//! 1. **Monotone pushes.** Every push happens while the queue's clock
//!    sits at the last popped time `now`, and schedules an arrival
//!    strictly greater than `now` (delays are quantized to ≥ 1 tick, and
//!    the per-channel FIFO floor is itself a previously scheduled
//!    arrival).
//! 2. **Bounded span.** Every pending arrival lies in `(now, now + W]`
//!    where `W` is the maximum edge weight: a fresh arrival is at most
//!    `now + w(e) ≤ now + W`, and a FIFO-floored arrival *equals* an
//!    earlier arrival, which is within the bound by induction.
//!
//! Under these two properties a circular array of `capacity ≥ W + 1`
//! buckets indexed by `time mod capacity` holds every pending event with
//! **at most one distinct timestamp per bucket**, so push is O(1) and
//! pop is a bitmap scan. The global send-order sequence number makes
//! same-time pops identical to the heap's `(time, seq)` order: pushes
//! carry strictly increasing `seq`, so tail-append order inside a
//! bucket *is* seq order.
//!
//! # The queue owns the event
//!
//! An entry is `(time, seq, payload)` with the payload stored in the
//! entry — no side table to look a popped slot up in. Buckets are runs
//! in an arena of fixed 8-entry chunks, appended and popped
//! contiguously, one `next` link per chunk, freed chunks recycled LIFO:
//! a tick with 50k deliveries streams through memory instead of chasing
//! 50k list nodes, and the payload arrives on its key's cache line.
//! `head[b]` / `tail[b]` (item indices, `chunk · 8 + offset`) are the
//! only per-bucket metadata: a pop that drains a bucket frees its chunk
//! even when part-used, so a refilled bucket starts at offset zero and
//! no offset or length is stored.
//!
//! Weights larger than the bucket horizon (the capacity is capped — see
//! [`BucketQueue::MAX_CAPACITY`]) fall back to an **overflow heap**:
//! entries beyond `cur + capacity` wait there and are merged into the
//! window, in seq order, before any pop that could overtake them. This
//! keeps the queue exact for arbitrarily heavy edges at a small cost on
//! that (rare) path — the overflow heap is a [`HeapQueue`]. The window
//! is auto-sized from the workload's maximum delay
//! ([`BucketQueue::new`]), so overflow only engages past
//! `W ≥ MAX_CAPACITY`; [`BucketQueue::overflow_pushes`] counts the
//! entries that took it, and the regression tests pin that a `W = 10⁴`
//! workload stays entirely inside the window.
//!
//! Same-bucket events additionally drain through a **hot-bucket fast
//! path**: after a pop leaves further entries at the same timestamp,
//! subsequent pops take them straight off that bucket's run — no
//! bitmap re-scan, no overflow probe — until the tick is exhausted.
//! This is what makes batched same-tick delivery (wide simultaneous
//! fan-outs on million-edge graphs) O(1) per event instead of O(scan).
//!
//! [`HeapQueue`] is the retained `BinaryHeap` implementation — the
//! differential reference the proptests and the core microbench run the
//! bucket queue against (`Simulator::core(CoreKind::Heap)`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled entry: `(arrival time, global send sequence, payload)`.
/// Ordering is lexicographic — time first, then seq — and the payload
/// never participates in ordering decisions.
pub type QueueEntry<T = usize> = (u64, u64, T);

/// A heap element popping smallest `(time, seq)` first. Seqs are unique,
/// so the payload needs no order of its own.
#[derive(Debug)]
struct MinFirst<T>(QueueEntry<T>);

impl<T> Ord for MinFirst<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (&self.0, &other.0);
        (b.0, b.1).cmp(&(a.0, a.1))
    }
}

impl<T> PartialOrd for MinFirst<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for MinFirst<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<T> Eq for MinFirst<T> {}

/// Sentinel "no entry" / "no chunk" index.
const NIL: u32 = u32::MAX;

/// Entries per arena chunk. Not a knob: larger chunks make every sparse
/// bucket pin a mostly-empty chunk.
const CHUNK: usize = 8;

/// Circular bucket ("calendar") queue with exact `(time, seq)` pop
/// order, an O(1) amortized push, and a two-level-bitmap pop scan.
///
/// Buckets are runs of entries in one chunk arena — a deliberate choice
/// over `Vec<Vec<_>>`: adversary evaluation runs thousands of *short*
/// simulations, and per-bucket vectors cost one malloc per
/// first-touched bucket (≈ one per event on a cold run). The arena
/// makes the whole queue a handful of flat allocations that a pooled
/// simulator reuses wholesale.
///
/// See the [module docs](self) for the invariants this relies on; they
/// are asserted in debug builds and pinned against [`HeapQueue`] and the
/// baseline simulator by `tests/flat_core_differential.rs`.
#[derive(Debug)]
pub struct BucketQueue<T = usize> {
    /// `head[t & mask]` / `tail[t & mask]` are the item indices of the
    /// first and last pending entry of exactly one timestamp at any
    /// moment ([`NIL`] when the bucket is empty), in ascending seq order
    /// through [`BucketQueue::items`].
    head: Vec<u32>,
    tail: Vec<u32>,
    mask: u64,
    /// Bit `b` set ⇔ bucket `b` is non-empty.
    l0: Vec<u64>,
    /// Bit `w` set ⇔ `l0[w] != 0`.
    l1: Vec<u64>,
    /// Bit `w` set ⇔ `l1[w] != 0`. The capacity cap is 2¹⁸ = 64·64·64
    /// buckets, so one third-level word always suffices.
    l2: u64,
    /// Bucket still holding entries at exactly `cur` after the last
    /// pop, or [`NIL`]: the same-tick fast path drains it directly —
    /// no pending entry (bucketed or overflow) can precede its head.
    hot: u32,
    /// Entries currently held in the buckets.
    bucketed: usize,
    /// The chunk arena: chunk `c` is `items[c · CHUNK..][..CHUNK]`. A
    /// slot is `Some` exactly while it lies between some bucket's head
    /// and tail; the arena grows to the peak number of chunks in use and
    /// stays there.
    items: Vec<Option<QueueEntry<T>>>,
    /// Per chunk: the chunk that continues its bucket's run, or — for a
    /// chunk on the free list — the next free chunk.
    next: Vec<u32>,
    free_head: u32,
    /// The last popped time; every pending entry is ≥ `cur` and every
    /// bucketed entry is `< cur + capacity`.
    cur: u64,
    /// Entries scheduled at or beyond `cur + capacity`, merged into the
    /// window lazily as `cur` advances.
    overflow: HeapQueue<T>,
    /// Pushes that landed beyond the window since the last clear.
    overflow_pushes: u64,
}

// Sizing is a property of the delay range, not of the payload: these
// live on the default instantiation so callers need no turbofish.
impl BucketQueue {
    /// Hard cap on the bucket array: 2¹⁸ buckets (≈ 2 MiB of headers at
    /// full size — but queues are auto-sized from the workload's
    /// maximum delay, so only runs that need the full window allocate
    /// it). It covers the scale-tier weight distributions outright;
    /// delays past the cap ride the overflow heap and merge back in
    /// exactly ([`BucketQueue::overflow_pushes`] counts them). The cap is
    /// 64 · 64 · 64, so the three-level bitmap's top level is a single
    /// `u64` word.
    pub const MAX_CAPACITY: usize = 1 << 18;

    /// Smallest bucket array worth the bitmap bookkeeping.
    pub const MIN_CAPACITY: usize = 1 << 4;

    /// The bucket count [`BucketQueue::new`] would allocate for
    /// `max_delay` — lets pools decide whether an existing queue's
    /// window already suffices.
    pub fn capacity_for(max_delay: u64) -> usize {
        (max_delay.saturating_add(1).min(Self::MAX_CAPACITY as u64) as usize)
            .next_power_of_two()
            .clamp(Self::MIN_CAPACITY, Self::MAX_CAPACITY)
    }
}

impl<T> BucketQueue<T> {
    /// Creates a queue sized for delays up to `max_delay` ticks: the
    /// capacity is the next power of two above `max_delay + 1`, clamped
    /// into `[MIN_CAPACITY, MAX_CAPACITY]`, so the common case (maximum
    /// edge weight below the cap) never touches the overflow heap.
    pub fn new(max_delay: u64) -> Self {
        Self::with_capacity(BucketQueue::capacity_for(max_delay))
    }

    /// Creates a queue with an explicit bucket count (rounded up to a
    /// power of two and clamped into `[MIN_CAPACITY, MAX_CAPACITY]`) —
    /// mainly for tests that want to force the overflow path.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity
            .next_power_of_two()
            .clamp(BucketQueue::MIN_CAPACITY, BucketQueue::MAX_CAPACITY);
        let l0_words = capacity.div_ceil(64);
        BucketQueue {
            head: vec![NIL; capacity],
            tail: vec![NIL; capacity],
            mask: capacity as u64 - 1,
            l0: vec![0; l0_words],
            l1: vec![0; l0_words.div_ceil(64)],
            l2: 0,
            hot: NIL,
            bucketed: 0,
            items: Vec::new(),
            next: Vec::new(),
            free_head: NIL,
            cur: 0,
            overflow: HeapQueue::new(),
            overflow_pushes: 0,
        }
    }

    /// Takes an all-`None` chunk off the free list — growing the arena
    /// by one when the list is empty — and returns its first item index.
    #[inline]
    fn alloc_chunk(&mut self) -> usize {
        if self.free_head == NIL {
            self.grow();
        }
        let c = self.free_head as usize;
        self.free_head = self.next[c];
        c * CHUNK
    }

    /// Puts one fresh chunk on the free list.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        self.free_head = self.next.len() as u32;
        self.next.push(NIL);
        self.items.resize_with(self.items.len() + CHUNK, || None);
        assert!(self.items.len() < NIL as usize, "bucket arena outgrew u32");
    }

    /// Returns the (drained) chunk holding item `i` to the free list.
    #[inline]
    fn free_chunk_of(&mut self, i: usize) {
        self.next[i / CHUNK] = self.free_head;
        self.free_head = (i / CHUNK) as u32;
    }

    /// The item after `i` in its bucket's run; `i` must not be the tail.
    #[inline]
    fn succ(&self, i: usize) -> usize {
        if (i + 1).is_multiple_of(CHUNK) {
            self.next[i / CHUNK] as usize * CHUNK
        } else {
            i + 1
        }
    }

    /// Appends `entry` behind bucket `b`'s tail.
    #[inline]
    fn append(&mut self, b: usize, entry: QueueEntry<T>) {
        let t = self.tail[b] as usize;
        let i = if t == NIL as usize {
            let i = self.alloc_chunk();
            self.head[b] = i as u32;
            self.set_bit(b);
            i
        } else if (t + 1).is_multiple_of(CHUNK) {
            let i = self.alloc_chunk();
            self.next[t / CHUNK] = (i / CHUNK) as u32;
            i
        } else {
            t + 1
        };
        self.items[i] = Some(entry);
        self.tail[b] = i as u32;
        self.bucketed += 1;
    }

    /// Number of buckets (a power of two).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    /// Total pending entries (bucketed + overflow).
    #[inline]
    pub fn len(&self) -> usize {
        self.bucketed + self.overflow.len()
    }

    /// Whether no entries are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pushes that landed beyond the bucket window and took
    /// the overflow-heap path since the last
    /// [`clear`](BucketQueue::clear). Stays zero for any workload whose
    /// maximum delay fits the auto-sized window — the scale regression
    /// pins this for `W = 10⁴`.
    #[inline]
    pub fn overflow_pushes(&self) -> u64 {
        self.overflow_pushes
    }

    /// Removes (and drops) every pending entry and rewinds the clock to
    /// zero, keeping all allocations for reuse. Draining through `pop`
    /// hands every chunk back to the free list, so the arena stays
    /// initialised: a run that ended at quiescence clears in O(1), and
    /// the next one takes its chunks without growing anything.
    pub fn clear(&mut self) {
        self.overflow.clear();
        while self.pop().is_some() {}
        self.cur = 0;
        self.overflow_pushes = 0;
    }

    #[inline]
    fn set_bit(&mut self, b: usize) {
        let w0 = b >> 6;
        self.l0[w0] |= 1 << (b & 63);
        self.l1[w0 >> 6] |= 1 << (w0 & 63);
        self.l2 |= 1 << (w0 >> 6);
    }

    #[inline]
    fn clear_bit(&mut self, b: usize) {
        let w0 = b >> 6;
        self.l0[w0] &= !(1 << (b & 63));
        if self.l0[w0] == 0 {
            let w1 = w0 >> 6;
            self.l1[w1] &= !(1 << (w0 & 63));
            if self.l1[w1] == 0 {
                self.l2 &= !(1 << w1);
            }
        }
    }

    /// The pending entry at item index `i`.
    #[inline]
    fn live(&self, i: u32) -> &QueueEntry<T> {
        self.items[i as usize]
            .as_ref()
            .expect("a bucket's run holds entries")
    }

    /// Schedules `(time, seq, payload)`.
    ///
    /// `time` must be at least the last popped time, and `seq` strictly
    /// greater than every previously pushed seq (both debug-asserted) —
    /// exactly what the simulator's dispatch loop guarantees.
    pub fn push(&mut self, time: u64, seq: u64, payload: T) {
        debug_assert!(
            time >= self.cur,
            "bucket queue requires monotone pushes: {time} < clock {}",
            self.cur
        );
        if time - self.cur > self.mask {
            self.overflow.push(time, seq, payload);
            self.overflow_pushes += 1;
            return;
        }
        let b = (time & self.mask) as usize;
        debug_assert!(
            self.tail[b] == NIL || {
                let &(pt, ps, _) = self.live(self.tail[b]);
                pt == time && ps < seq
            },
            "bucket {b} would mix timestamps or break seq order"
        );
        self.append(b, (time, seq, payload));
    }

    /// Merges every overflow entry that now falls inside the bucket
    /// window `[cur, cur + capacity)`. Insertion keeps per-bucket seq
    /// order (overflow entries may pre-date bucketed ones).
    fn merge_overflow(&mut self) {
        while let Some(t) = self.overflow.next_time() {
            if t - self.cur > self.mask {
                break;
            }
            let mut e = self.overflow.pop().expect("peeked entry");
            let b = (t & self.mask) as usize;
            if self.head[b] != NIL {
                debug_assert_eq!(self.live(self.head[b]).0, t);
                // One pass down the run, carrying the smaller-seq entry
                // forward: from the first later-seq entry on, every slot
                // trades places with the carry, which shifts the rest of
                // the run one slot towards the tail. Rare by
                // construction.
                let (mut i, tail) = (self.head[b] as usize, self.tail[b] as usize);
                loop {
                    let held = self.items[i]
                        .as_mut()
                        .expect("a bucket's run holds entries");
                    if held.1 > e.1 {
                        std::mem::swap(held, &mut e);
                    }
                    if i == tail {
                        break;
                    }
                    i = self.succ(i);
                }
            }
            self.append(b, e);
        }
    }

    /// First non-empty bucket at circular distance ≥ 0 from `start`.
    /// Must only be called while some bucket is non-empty.
    fn next_set_from(&self, start: usize) -> usize {
        let w0 = start >> 6;
        let within = self.l0[w0] & (u64::MAX << (start & 63));
        if within != 0 {
            return (w0 << 6) | within.trailing_zeros() as usize;
        }
        let w0 = self.next_word_from(w0 + 1);
        (w0 << 6) | self.l0[w0].trailing_zeros() as usize
    }

    /// First non-empty `l0` word at circular index ≥ `start`, via the
    /// `l1`/`l2` summaries. `start == l0.len()` wraps to zero. Must only
    /// be called while some bucket is non-empty.
    fn next_word_from(&self, start: usize) -> usize {
        let start = if start >= self.l0.len() { 0 } else { start };
        let w1 = start >> 6;
        let within = self.l1[w1] & (u64::MAX << (start & 63));
        if within != 0 {
            return (w1 << 6) | within.trailing_zeros() as usize;
        }
        // Later `l1` words via `l2`, else wrap to the earliest set word
        // (which may be `w1` itself, with only pre-`start` bits — those
        // come last in circular order, exactly as the wrap implies).
        let hi = if w1 + 1 < 64 { u64::MAX << (w1 + 1) } else { 0 };
        let later = self.l2 & hi;
        let w = if later != 0 {
            later.trailing_zeros() as usize
        } else {
            debug_assert_ne!(self.l2, 0, "scan on an empty bucket queue");
            self.l2.trailing_zeros() as usize
        };
        (w << 6) | self.l1[w].trailing_zeros() as usize
    }

    /// The `(time, seq)` key the next [`BucketQueue::pop`] will return,
    /// without consuming it.
    ///
    /// A pure peek: it must NOT advance the clock the way [`pop`]'s
    /// window preparation does, because callers (the lock-step runner)
    /// peek ahead and may still schedule sends from an earlier wake-up
    /// pulse. The bucket scan alone is not enough — a pop advances the
    /// window, and an overflow entry the window now covers (but which
    /// [`pop`] has not merged yet) can undercut every bucketed key — so
    /// the peek is the minimum over both sides.
    ///
    /// [`pop`]: BucketQueue::pop
    pub fn peek(&self) -> Option<(u64, u64)> {
        let bucketed = (self.bucketed > 0).then(|| {
            let b = self.next_set_from((self.cur & self.mask) as usize);
            let &(t, s, _) = self.live(self.head[b]);
            (t, s)
        });
        match (bucketed, self.overflow.peek()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The timestamp the next [`BucketQueue::pop`] will return: the
    /// time of [`BucketQueue::peek`].
    pub fn next_time(&mut self) -> Option<u64> {
        self.peek().map(|(t, _)| t)
    }

    /// Visits every pending entry whose seq is at least `seq`, in no
    /// particular order, without touching the queue. A bucket's run is
    /// in seq order, so the walk skips a run whose tail is older and
    /// every full chunk whose last entry is: its cost is the entries
    /// visited plus one step per chunk passed over.
    pub fn pending_since(&self, seq: u64, mut visit: impl FnMut(&QueueEntry<T>)) {
        for (w, &word) in self.l0.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (mut i, tail) = (self.head[b] as usize, self.tail[b] as usize);
                if self.live(tail as u32).1 < seq {
                    continue;
                }
                // Chunks before the tail's are full to their last slot.
                while i / CHUNK != tail / CHUNK && self.live((i | (CHUNK - 1)) as u32).1 < seq {
                    i = self.next[i / CHUNK] as usize * CHUNK;
                }
                loop {
                    let entry = self.live(i as u32);
                    if entry.1 >= seq {
                        visit(entry);
                    }
                    if i == tail {
                        break;
                    }
                    i = self.succ(i);
                }
            }
        }
        self.overflow.pending_since(seq, visit);
    }

    /// Makes the bucket window authoritative: jumps the clock onto the
    /// overflow head when the buckets ran dry, then merges every
    /// overflow entry the window now covers. Returns `None` when the
    /// queue is empty.
    fn prepare_window(&mut self) -> Option<()> {
        if self.bucketed == 0 {
            self.cur = self.overflow.next_time()?;
        }
        self.merge_overflow();
        Some(())
    }

    /// Advances the window origin to `t` without popping — for executors
    /// whose clock can jump ahead of the last delivery (the lock-step
    /// runner's wake-up pulses). Valid only when no pending entry is
    /// earlier than `t` (debug-asserted); entries the enlarged window now
    /// covers migrate out of the overflow heap.
    pub fn advance_to(&mut self, t: u64) {
        if t <= self.cur {
            return;
        }
        debug_assert!(self.next_time().is_none_or(|nt| nt >= t));
        self.hot = NIL;
        self.cur = t;
        self.merge_overflow();
    }

    /// Removes and returns the minimum entry by `(time, seq)`.
    pub fn pop(&mut self) -> Option<QueueEntry<T>> {
        let b = if self.hot != NIL {
            // Same-tick fast path: the previous pop left entries at
            // exactly `cur` in this bucket. Nothing can precede them —
            // any overflow entry at `cur` would have been merged before
            // that pop (its span from the pre-pop clock was within the
            // window, like the popped entry's), every other bucket holds
            // strictly later times, and same-tick pushes append behind
            // the tail in seq order. So: no overflow probe, no scan.
            self.hot as usize
        } else {
            // Window preparation only matters while overflow entries
            // exist — skipping it keeps the common path branch-cheap.
            if !self.overflow.is_empty() {
                self.prepare_window()?;
            } else if self.bucketed == 0 {
                return None;
            }
            self.next_set_from((self.cur & self.mask) as usize)
        };
        let h = self.head[b] as usize;
        let entry = self.items[h].take().expect("a bucket's run holds entries");
        let last = h == self.tail[b] as usize;
        if last {
            // The chunk goes back even when part-used: the bucket's next
            // run starts at offset zero of a fresh one.
            self.head[b] = NIL;
            self.tail[b] = NIL;
            self.clear_bit(b);
            self.free_chunk_of(h);
        } else {
            self.head[b] = self.succ(h) as u32;
            if (h + 1).is_multiple_of(CHUNK) {
                self.free_chunk_of(h);
            }
        }
        self.bucketed -= 1;
        self.cur = entry.0;
        self.hot = if last { NIL } else { b as u32 };
        Some(entry)
    }

    /// Replaces the contents with `entries`, pushed in ascending seq
    /// order and none earlier than `cur`, with the clock at `cur` and the
    /// overflow meter at `overflow_pushes`: the rebuild's own pushes are
    /// not counted. A checkpoint restores a queue this way — pop order
    /// depends only on the keys, so the rebuilt queue pops exactly as
    /// the one it was captured from, and with the clock at the captured
    /// queue's next key, every later push meets the same window.
    pub fn rebuild(
        &mut self,
        cur: u64,
        entries: impl IntoIterator<Item = QueueEntry<T>>,
        overflow_pushes: u64,
    ) {
        self.clear();
        self.cur = cur;
        for (t, s, payload) in entries {
            self.push(t, s, payload);
        }
        self.overflow_pushes = overflow_pushes;
    }
}

/// The retained `BinaryHeap` scheduling queue — the reference
/// implementation [`BucketQueue`] is differentially tested against, and
/// the core behind [`CoreKind::Heap`](crate::runtime::CoreKind).
#[derive(Debug)]
pub struct HeapQueue<T = usize> {
    heap: BinaryHeap<MinFirst<T>>,
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<T> HeapQueue<T> {
    /// Creates an empty heap queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total pending entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes every pending entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Schedules `(time, seq, payload)`.
    #[inline]
    pub fn push(&mut self, time: u64, seq: u64, payload: T) {
        self.heap.push(MinFirst((time, seq, payload)));
    }

    /// The `(time, seq)` key the next pop will return.
    pub fn peek(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(|MinFirst((t, s, _))| (*t, *s))
    }

    /// The timestamp the next pop will return.
    pub fn next_time(&mut self) -> Option<u64> {
        self.peek().map(|(t, _)| t)
    }

    /// Removes and returns the minimum entry by `(time, seq)`.
    #[inline]
    pub fn pop(&mut self) -> Option<QueueEntry<T>> {
        self.heap.pop().map(|MinFirst(e)| e)
    }

    /// Visits every pending entry whose seq is at least `seq`, in no
    /// particular order.
    pub fn pending_since(&self, seq: u64, mut visit: impl FnMut(&QueueEntry<T>)) {
        for MinFirst(entry) in &self.heap {
            if entry.1 >= seq {
                visit(entry);
            }
        }
    }

    /// Replaces the contents with `entries`.
    pub fn rebuild(&mut self, entries: impl IntoIterator<Item = QueueEntry<T>>) {
        self.heap.clear();
        self.heap.extend(entries.into_iter().map(MinFirst));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    impl<T> BucketQueue<T> {
        /// The layout's invariants, walked in full: every chunk is on
        /// the free list or reachable from exactly one bucket, every
        /// slot outside a bucket's `head..=tail` run is `None`, a run
        /// holds one timestamp in ascending seq order, and the bitmap
        /// and the entry count say the same as the runs.
        fn check_invariants(&self) {
            assert_eq!(self.items.len(), self.next.len() * CHUNK);
            let mut claimed = vec![false; self.next.len()];
            let mut claim = |c: usize, by: &str| {
                assert!(
                    !std::mem::replace(&mut claimed[c], true),
                    "chunk {c} reached twice ({by})"
                );
            };
            let mut c = self.free_head;
            while c != NIL {
                claim(c as usize, "free list");
                c = self.next[c as usize];
            }
            let mut live = vec![false; self.items.len()];
            for b in 0..self.capacity() {
                let set = self.l0[b >> 6] >> (b & 63) & 1 == 1;
                assert_eq!(set, self.head[b] != NIL, "bitmap vs head of bucket {b}");
                assert_eq!(set, self.tail[b] != NIL, "bitmap vs tail of bucket {b}");
                if !set {
                    continue;
                }
                let (mut i, tail) = (self.head[b] as usize, self.tail[b] as usize);
                let (time, mut prev) = (self.live(i as u32).0, None);
                assert_eq!((time & self.mask) as usize, b);
                claim(i / CHUNK, "bucket head");
                loop {
                    let &(t, seq, _) = self.live(i as u32);
                    assert_eq!(t, time, "bucket {b} mixes timestamps");
                    assert!(prev < Some(seq), "bucket {b} out of seq order");
                    prev = Some(seq);
                    live[i] = true;
                    if i == tail {
                        break;
                    }
                    i = self.succ(i);
                    if i % CHUNK == 0 {
                        claim(i / CHUNK, "bucket run");
                    }
                }
            }
            assert!(claimed.iter().all(|&c| c), "a chunk leaked");
            for (i, slot) in self.items.iter().enumerate() {
                assert_eq!(
                    slot.is_some(),
                    live[i],
                    "slot {i} outside/inside a live run"
                );
            }
            assert_eq!(live.iter().filter(|&&l| l).count(), self.bucketed);
            for (w, &word) in self.l0.iter().enumerate() {
                assert_eq!(word != 0, self.l1[w >> 6] >> (w & 63) & 1 == 1);
            }
            for (w, &word) in self.l1.iter().enumerate() {
                assert_eq!(word != 0, self.l2 >> w & 1 == 1);
            }
        }
    }

    /// The pending entries with seq at least `seq`, `(time, seq)` sorted.
    fn since<T: Clone>(
        pending_since: impl FnOnce(u64, &mut dyn FnMut(&QueueEntry<T>)),
        seq: u64,
    ) -> Vec<QueueEntry<T>> {
        let mut out = Vec::new();
        pending_since(seq, &mut |e| out.push(e.clone()));
        out.sort_unstable_by_key(|e| (e.0, e.1));
        out
    }

    fn bucket_since<T: Clone>(q: &BucketQueue<T>, seq: u64) -> Vec<QueueEntry<T>> {
        since(|s, f| q.pending_since(s, f), seq)
    }

    fn heap_since<T: Clone>(q: &HeapQueue<T>, seq: u64) -> Vec<QueueEntry<T>> {
        since(|s, f| q.pending_since(s, f), seq)
    }

    /// `entries` (`(time, seq)` sorted) pushed back in seq order from
    /// the earliest key's time — what a checkpoint restore does.
    fn rebuild_from<T: Clone>(q: &mut BucketQueue<T>, entries: &[QueueEntry<T>]) {
        let mut by_seq = entries.to_vec();
        by_seq.sort_unstable_by_key(|e| e.1);
        q.rebuild(entries.first().map_or(0, |e| e.0), by_seq, 0);
    }

    /// Drives both queues with an identical, simulator-shaped workload
    /// (monotone pushes within a bounded span) and checks every pop and
    /// the bucket layout after every step. `payload` builds the value
    /// carried by push number `seq`.
    fn differential_with<T: Clone + PartialEq + std::fmt::Debug>(
        mut max_delay: u64,
        capacity: usize,
        seed: u64,
        ops: usize,
        burst: u64,
        payload: impl Fn(u64) -> T,
    ) {
        max_delay = max_delay.max(1);
        let mut bucket = BucketQueue::with_capacity(capacity);
        let mut heap = HeapQueue::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seq = 0u64;
        let mut now = 0u64;
        for i in 0..ops {
            // A burst of pushes from the current clock...
            for _ in 0..rng.random_range(0..burst) {
                let t = now + rng.random_range(1..=max_delay);
                bucket.push(t, seq, payload(seq));
                heap.push(t, seq, payload(seq));
                seq += 1;
            }
            // ...a peek at what is pending, recent pushes only...
            assert_eq!(bucket.peek(), heap.peek());
            let recent = seq.saturating_sub(rng.random_range(0..3 * burst));
            assert_eq!(bucket_since(&bucket, recent), heap_since(&heap, recent));
            // ...then pop one event, as the run loop does.
            assert_eq!(bucket.next_time(), heap.next_time());
            let (b, h) = (bucket.pop(), heap.pop());
            assert_eq!(b, h, "divergence at op {i} (seed {seed})");
            if let Some((t, _, _)) = b {
                now = t;
            }
            assert_eq!(bucket.len(), heap.len());
            bucket.check_invariants();
        }
        // Drain to empty — still identical.
        loop {
            let (b, h) = (bucket.pop(), heap.pop());
            assert_eq!(b, h);
            bucket.check_invariants();
            if b.is_none() {
                break;
            }
        }
        assert!(bucket.is_empty());
    }

    fn differential(max_delay: u64, capacity: usize, seed: u64, ops: usize) {
        differential_with(max_delay, capacity, seed, ops, 4, |seq| seq as usize);
    }

    #[test]
    fn matches_heap_with_a_heap_owning_payload() {
        // The payload lives in the entry now: a stale copy or a missed
        // `take()` shows as a wrong or doubled string. Delays of at most
        // 3 with bursts of up to 12 make multi-chunk buckets the rule;
        // the 500-on-16 run sends the strings through the overflow heap
        // and its merge.
        let text = |seq: u64| format!("payload-{seq}");
        for seed in 0..4 {
            differential_with(3, 16, seed, 400, 12, text);
            differential_with(500, 16, seed, 400, 12, text);
        }
    }

    #[test]
    fn matches_heap_when_span_fits_window() {
        for seed in 0..8 {
            differential(60, 64, seed, 500);
        }
    }

    #[test]
    fn matches_heap_through_overflow() {
        // Delays up to 500 on a 16-bucket window: almost everything
        // takes the overflow path and must still pop in exact order.
        for seed in 0..8 {
            differential(500, 16, seed, 400);
        }
    }

    #[test]
    fn same_time_pops_in_seq_order() {
        let mut q = BucketQueue::with_capacity(64);
        for s in 0..10 {
            q.push(5, s, s as usize);
        }
        for s in 0..10 {
            assert_eq!(q.pop(), Some((5, s, s as usize)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_entry_older_than_bucketed_pops_first() {
        // seq 0 lands far out (overflow), seq 1 lands at the same time
        // but is pushed later from a closer clock: the overflow entry
        // must still pop first.
        let mut q = BucketQueue::with_capacity(16);
        q.push(100, 0, 0); // overflow (span 100 > 15)
        q.push(1, 2, 2);
        assert_eq!(q.pop(), Some((1, 2, 2))); // clock now 1
        q.push(100, 3, 3); // within a later window after jumps
        q.push(90, 4, 4); // overflow
        assert_eq!(q.pop(), Some((90, 4, 4)));
        assert_eq!(q.pop(), Some((100, 0, 0)));
        assert_eq!(q.pop(), Some((100, 3, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_sees_unmerged_overflow_entries_and_keeps_the_clock_still() {
        // A pop advances the window, after which a not-yet-merged
        // overflow entry may undercut every bucketed time: peeking must
        // report it, and must not advance the clock — the lock-step
        // runner peeks ahead and may still push from an earlier pulse.
        let mut q = BucketQueue::with_capacity(16);
        q.push(5, 0, 0);
        q.push(17, 1, 1); // 17 - 0 > 15: overflow
        assert_eq!(q.pop(), Some((5, 0, 0))); // clock 5; 17 unmerged
        q.push(19, 2, 2); // bucketed: 19 - 5 <= 15
        assert_eq!(q.next_time(), Some(17));
        // The peek must not have committed the clock to 17: a push at
        // 6 (> the popped time 5) must still be admissible.
        q.push(6, 3, 3);
        assert_eq!(q.pop(), Some((6, 3, 3)));
        assert_eq!(q.pop(), Some((17, 1, 1)));
        assert_eq!(q.pop(), Some((19, 2, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_and_rebuild_round_trip() {
        let mut q = BucketQueue::with_capacity(32);
        let mut rng = StdRng::seed_from_u64(9);
        let mut now = 0;
        for s in 0..50u64 {
            q.push(now + rng.random_range(1..=200u64), s, s as usize);
            if s % 3 == 0 {
                if let Some((t, _, _)) = q.pop() {
                    now = t;
                }
            }
        }
        let snap = bucket_since(&q, 0);
        assert!(snap.windows(2).all(|w| w[0] < w[1]), "snapshot sorted");
        assert_eq!(q.peek(), snap.first().map(|e| (e.0, e.1)));
        let mut restored = BucketQueue::with_capacity(32);
        rebuild_from(&mut restored, &snap);
        restored.check_invariants();
        let mut heap = HeapQueue::new();
        heap.rebuild(snap.iter().cloned());
        assert_eq!(restored.len(), heap.len());
        loop {
            let (a, b) = (restored.pop(), heap.pop());
            assert_eq!(a, b);
            assert_eq!(a, q.pop());
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn clear_keeps_queue_reusable() {
        let mut q = BucketQueue::new(100);
        q.push(5, 0, 0);
        q.push(900, 1, 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push(3, 0, 7);
        assert_eq!(q.pop(), Some((3, 0, 7)));
    }

    #[test]
    fn capacity_is_clamped_and_sized_by_delay() {
        assert_eq!(<BucketQueue>::new(0).capacity(), BucketQueue::MIN_CAPACITY);
        assert_eq!(<BucketQueue>::new(100).capacity(), 128);
        assert_eq!(<BucketQueue>::new(10_000).capacity(), 16_384);
        assert_eq!(
            <BucketQueue>::new(u64::MAX).capacity(),
            BucketQueue::MAX_CAPACITY
        );
    }

    #[test]
    fn matches_heap_on_a_wide_window() {
        // Delays up to 10⁵ exercise the three-level bitmap with many
        // l1 words (2¹⁷ buckets → 2048 l0 words → 32 l1 words).
        for seed in 0..4 {
            differential(100_000, 1 << 17, seed, 300);
        }
    }

    #[test]
    fn w_10k_workload_stays_out_of_overflow() {
        // Regression for the former 2⁸ capacity cap, which silently
        // routed every W > 256 workload through the overflow heap: an
        // auto-sized queue for W = 10⁴ must keep every push bucketed
        // and still pop in exact (time, seq) order.
        let mut q = BucketQueue::new(10_000);
        let mut heap = HeapQueue::new();
        let mut rng = StdRng::seed_from_u64(42);
        let mut now = 0u64;
        let mut seq = 0u64;
        for _ in 0..2_000 {
            for _ in 0..rng.random_range(0..3u64) {
                let t = now + rng.random_range(1..=10_000u64);
                q.push(t, seq, seq as usize);
                heap.push(t, seq, seq as usize);
                seq += 1;
            }
            let (b, h) = (q.pop(), heap.pop());
            assert_eq!(b, h);
            if let Some((t, _, _)) = b {
                now = t;
            }
        }
        assert_eq!(q.overflow_pushes(), 0, "W = 10⁴ must fit the window");
    }

    #[test]
    fn overflow_pushes_counts_beyond_window_entries_and_clear_resets() {
        let mut q = BucketQueue::with_capacity(16);
        q.push(5, 0, 0); // bucketed
        q.push(100, 1, 1); // beyond the 16-tick window
        q.push(200, 2, 2); // beyond the window
        assert_eq!(q.overflow_pushes(), 2);
        // Draining merges them back but does not rewrite history.
        while q.pop().is_some() {}
        assert_eq!(q.overflow_pushes(), 2);
        q.clear();
        assert_eq!(q.overflow_pushes(), 0);
    }

    #[test]
    fn same_tick_pushes_interleave_with_hot_drain() {
        // The hot-bucket fast path must still honor seq order when the
        // executor pushes more same-tick events mid-drain (zero-delay
        // fan-out replies land at the tick being delivered).
        let mut q = BucketQueue::with_capacity(64);
        q.push(5, 0, 0);
        q.push(5, 1, 1);
        assert_eq!(q.pop(), Some((5, 0, 0))); // leaves seq 1 hot
        q.push(5, 2, 2); // same tick, behind seq 1
        q.push(6, 3, 3); // later tick, different bucket
        assert_eq!(q.next_time(), Some(5));
        assert_eq!(q.pop(), Some((5, 1, 1)));
        assert_eq!(q.pop(), Some((5, 2, 2)));
        assert_eq!(q.pop(), Some((6, 3, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn hot_path_survives_peek_and_rebuild() {
        let mut q = BucketQueue::with_capacity(32);
        for s in 0..6u64 {
            q.push(9, s, s as usize);
        }
        assert_eq!(q.pop(), Some((9, 0, 0))); // hot bucket with 5 left
        assert_eq!(q.peek(), Some((9, 1)));
        let snap = bucket_since(&q, 0);
        assert_eq!(snap.len(), 5);
        assert_eq!(bucket_since(&q, 4), snap[3..]);
        let mut restored = BucketQueue::with_capacity(32);
        rebuild_from(&mut restored, &snap);
        for s in 1..6u64 {
            assert_eq!(q.pop(), Some((9, s, s as usize)));
            assert_eq!(restored.pop(), Some((9, s, s as usize)));
        }
        assert_eq!((q.pop(), restored.pop()), (None, None));
    }

    #[test]
    fn rebuild_sets_the_overflow_meter_and_counts_none_of_its_pushes() {
        let mut q = BucketQueue::with_capacity(16);
        q.push(5, 0, 0);
        q.push(100, 1, 1); // beyond the window
        assert_eq!(q.overflow_pushes(), 1);
        let snap = bucket_since(&q, 0);
        let mut restored = BucketQueue::with_capacity(16);
        restored.rebuild(5, snap.iter().copied(), q.overflow_pushes());
        assert_eq!(
            restored.overflow_pushes(),
            1,
            "the rebuild's push is not counted"
        );
        restored.push(200, 2, 2);
        q.push(200, 2, 2);
        assert_eq!(restored.overflow_pushes(), q.overflow_pushes());
        for _ in 0..3 {
            assert_eq!(restored.pop(), q.pop());
        }
    }

    /// `n` entries at one timestamp, drained while same-tick pushes keep
    /// arriving: the run crosses chunk edges and frees chunks behind its
    /// head while the bucket is still hot.
    #[test]
    fn one_bucket_at_and_across_the_chunk_edge() {
        for n in [CHUNK, CHUNK + 1, 5 * CHUNK + 1] {
            let n = n as u64;
            let mut q = BucketQueue::with_capacity(16);
            for s in 0..n {
                q.push(7, s, s.to_string());
            }
            q.check_invariants();
            assert_eq!(q.next.len(), (n as usize).div_ceil(CHUNK));
            // Pop one, push one, n times over: the bucket never empties,
            // and what the head frees the tail takes back.
            for s in 0..n {
                assert_eq!(q.pop(), Some((7, s, s.to_string())));
                q.push(7, n + s, (n + s).to_string());
                q.check_invariants();
            }
            assert!(
                q.next.len() <= (n as usize).div_ceil(CHUNK) + 1,
                "a hot bucket must recycle its own chunks: {} for {n} entries",
                q.next.len()
            );
            for s in n..2 * n {
                assert_eq!(q.pop(), Some((7, s, s.to_string())));
                q.check_invariants();
            }
            assert_eq!(q.pop(), None);
            assert_eq!(q.items.iter().flatten().count(), 0);
        }
    }

    #[test]
    fn overflow_entries_merge_into_a_multi_chunk_bucket() {
        // Three entries for t = 100 wait in the overflow heap while the
        // clock walks up; by the time the window reaches them, bucket
        // 100 already holds twenty later-seq entries over three chunks.
        // The merge puts seq 0 at the front and seqs 1 and 2 *behind*
        // it, each shifting the rest of the run across chunk edges.
        let mut q = BucketQueue::with_capacity(16);
        let mut heap = HeapQueue::new();
        let mut seq = 0u64;
        let mut push = |q: &mut BucketQueue<String>, heap: &mut HeapQueue<String>, t: u64| {
            q.push(t, seq, format!("e{seq}"));
            heap.push(t, seq, format!("e{seq}"));
            seq += 1;
        };
        for _ in 0..3 {
            push(&mut q, &mut heap, 100);
        }
        assert_eq!(q.overflow_pushes(), 3);
        for t in (10..=80).step_by(10).chain([86]) {
            push(&mut q, &mut heap, t);
            assert_eq!(q.pop(), heap.pop());
        }
        for _ in 0..20 {
            push(&mut q, &mut heap, 100); // 100 − 86 fits the window
        }
        assert_eq!(q.overflow_pushes(), 3, "the late twenty are bucketed");
        assert_eq!(q.overflow.len(), 3, "the early three are still outside");
        q.check_invariants();
        let snap = bucket_since(&q, 0);
        assert_eq!(snap, heap_since(&heap, 0));
        assert_eq!(bucket_since(&q, 3), heap_since(&heap, 3));
        for _ in 0..23 {
            assert_eq!(q.pop(), heap.pop());
            assert_eq!(q.overflow.len(), 0, "the first pop merged all three");
            q.check_invariants();
        }
        assert_eq!((q.pop(), heap.pop()), (None, None));

        // The other door into the merge: a clock jump.
        let mut q = BucketQueue::with_capacity(16);
        rebuild_from(&mut q, &snap);
        q.check_invariants();
        q.advance_to(100);
        q.check_invariants();
        for entry in snap {
            assert_eq!(q.pop(), Some(entry));
        }
    }

    #[test]
    fn clear_and_rebuild_after_chunks_were_recycled() {
        use std::rc::Rc;
        // Every payload is a handle on one counter, so anything a queue
        // still holds — in a run, a freed chunk or the overflow heap —
        // is visible from outside.
        let token = Rc::new(());
        let churned = |token: &Rc<()>| {
            let mut q = BucketQueue::with_capacity(16);
            let mut seq = 0;
            for round in 0..4u64 {
                for _ in 0..(3 * CHUNK) {
                    q.push(10 * round + 3, seq, Rc::clone(token));
                    seq += 1;
                }
                q.push(10 * round + 500, seq, Rc::clone(token)); // overflow
                seq += 1;
                for _ in 0..(2 * CHUNK + 3) {
                    q.pop().expect("pushed above");
                }
            }
            q.check_invariants();
            assert_ne!(q.free_head, NIL, "the scenario recycles chunks");
            q
        };
        let mut q = churned(&token);
        let pending = q.len();
        assert_eq!(Rc::strong_count(&token), 1 + pending);

        // A peek holds no handle; the snapshot taken through it does...
        let snap = bucket_since(&q, 0);
        assert_eq!(Rc::strong_count(&token), 1 + 2 * pending);
        // ...a rebuild replaces what the target held...
        let mut restored = churned(&token);
        rebuild_from(&mut restored, &snap);
        restored.check_invariants();
        assert_eq!(Rc::strong_count(&token), 1 + 3 * pending);
        drop(snap);
        // ...both pop alike...
        loop {
            let (a, b) = (q.pop(), restored.pop());
            let key = |e: &Option<QueueEntry<Rc<()>>>| e.as_ref().map(|e| (e.0, e.1));
            assert_eq!(key(&a), key(&b));
            if a.is_none() {
                break;
            }
        }
        assert_eq!(Rc::strong_count(&token), 1);
        // ...and no payload survives a `clear`, wherever it sat.
        let mut q = churned(&token);
        assert!(Rc::strong_count(&token) > 1);
        q.clear();
        q.check_invariants();
        assert_eq!(Rc::strong_count(&token), 1);
        q.push(3, 0, Rc::clone(&token));
        assert_eq!(q.pop().map(|e| (e.0, e.1)), Some((3, 0)));
    }
}
