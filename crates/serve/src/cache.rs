//! The prefix-sharing result cache: FULL hits, INCREMENTAL resumes.
//!
//! Scenarios are keyed by `(graph key, stack key, schedule prefix
//! hash)`. For every cold schedule run the service stores the
//! checkpoints [`run_with_checkpoints`](csp_sim::Simulator::run_with_checkpoints)
//! produced, each under the [`prefix_key`](csp_adversary::Schedule::prefix_key)
//! of the decisions baked into it. A resubmitted scenario probes its own
//! prefix hashes deepest-first: an exact full-schedule match is a
//! **FULL** hit (the stored report comes back without replaying
//! anything), a checkpoint match is an **INCREMENTAL** hit (the run
//! resumes from the deepest matching snapshot), and anything else is a
//! cold **MISS**.
//!
//! Soundness leans on two invariants pinned elsewhere in the workspace:
//! the checkpoint oracle-agreement contract (a resume is bit-identical
//! to a cold run when the oracle agrees on indices ≥
//! [`Checkpoint::messages`]) and the prefix-key construction (equal
//! keys ⟺ equal fault-and-churn sets + bitwise-equal decision
//! prefixes, the hash-collision caveat aside). Because a schedule's
//! crashes, rejoin chains **and** drift revisions are all folded into
//! every prefix key ([`Schedule::crash_key`](csp_adversary::Schedule::crash_key)),
//! schedules that crash different vertices — or churn the same vertex
//! differently, or revise an edge weight at a different instant — never
//! share a checkpoint.
//!
//! The sharing starts at the request bytes. Per scenario key the cache
//! retains the text of one submitted schedule next to what it parsed to
//! ([`StackCache::ingest`]): the next submission is compared with it
//! byte for byte, the decisions before the first difference are copied
//! instead of parsed, and [`StackCache::probe_shared`] continues hashing
//! from the retained hasher state at the deepest checkpoint mark they
//! cover. A byte-identical prefix that ends at a line start parses to
//! an identical state, and an identical decision prefix under an equal
//! [`crash_key`](Schedule::crash_key) hashes to an identical state, so
//! both shortcuts reproduce what a cold parse and a from-scratch probe
//! compute. What is retained follows a fixed rule, not a tunable: one
//! text per key, replaced when a submission could copy less than half
//! of its decisions from it, dropped when the key's last checkpoint
//! mark is evicted (and a key that never gets a mark holds one only
//! until another such key does).
//!
//! Everything held for a scenario key — its checkpoints, its results,
//! its retained text — sits in one entry of one map, so a probe looks
//! the key up once and what depends on what is a matter of one entry:
//! the depths a probe hashes at are those of the entry's checkpoints,
//! and the retained text goes when the last of them does.
//!
//! Eviction is LRU by a global access epoch with separate caps for
//! checkpoints (heavyweight: queue + states) and results
//! (lightweight), so a long-running service holds its memory flat; an
//! entry left with nothing is removed. Each cap keeps one ordered index
//! of `(epoch, scenario key, slot)` beside the entries, updated on every
//! insert, hit and eviction, so the victim is the index's first element
//! and the held count is the index's length: neither costs a scan. The
//! checkpoints of one store share an epoch, and their slot is `(depth,
//! prefix hash)`, so among them the shallowest goes first and a batch
//! cut by the cap keeps its deepest prefixes — whatever order a hash map
//! would have listed them in.
//!
//! Everything written goes through one store path (`StackCache::store`
//! of a `Keyed` run): a run's checkpoints arrive by value with their
//! prefix keys and the exact hash of the schedule they were keyed by,
//! computed off the cache (the service does it on the worker that ran
//! the schedule), and the cache wraps each snapshot in its [`Arc`]
//! without copying it.

use crate::json::{Escaped, RawLines};
use csp_adversary::{Fallback, ParseError, PrefixHasher, Schedule, TextParse};
use csp_sim::{Checkpoint, CostReport, Process};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Capacity limits for one [`StackCache`].
#[derive(Clone, Copy, Debug)]
pub struct CacheCaps {
    /// Maximum retained checkpoints across all graphs and schedules.
    pub checkpoints: usize,
    /// Maximum retained exact results.
    pub results: usize,
}

impl Default for CacheCaps {
    fn default() -> Self {
        CacheCaps {
            checkpoints: 256,
            results: 1024,
        }
    }
}

/// What a cache probe found for a submitted schedule.
#[derive(Debug)]
pub enum Probe<P: Process> {
    /// The full schedule (and fallback) was evaluated before: the
    /// stored report, returned without any replay. Boxed: a
    /// `StoredResult` carries a full `CostReport`, far larger than the
    /// other variants.
    Full(Box<StoredResult>),
    /// A checkpoint covers a proper prefix: resume from it. Stored
    /// checkpoints are immutable, so the cache hands out an [`Arc`] —
    /// shipping one to a worker thread is a refcount bump, not a deep
    /// clone of queue + states.
    Incremental {
        /// Snapshot to resume from.
        checkpoint: Arc<Checkpoint<P>>,
        /// Decisions baked into the snapshot (= its message count).
        depth: u64,
    },
    /// Nothing usable: run cold.
    Miss,
}

/// A cached exact result.
#[derive(Clone, Debug)]
pub struct StoredResult {
    /// The run's full cost report.
    pub report: CostReport,
    /// Structural digest of the final states, letting differential
    /// tests assert FULL hits describe the same run without storing
    /// every state vector.
    pub states_digest: u64,
    /// For search results: the worst schedule found, serialized.
    pub schedule_text: Option<String>,
    /// For search results: worst-case baseline completion.
    pub worst_case: Option<u64>,
    /// For exhaustive results: `(classes_explored, schedules_pruned)`
    /// from the DPOR explorer.
    pub reduction: Option<(u64, u64)>,
}

/// A schedule string read by [`StackCache::ingest`].
#[derive(Debug)]
pub struct Ingested {
    /// What the string parsed to — equal to [`Schedule::from_text`] of
    /// the decoded string.
    pub schedule: Schedule,
    /// Leading decisions copied from the key's retained text. The first
    /// `reused` decisions are that text's, which is what
    /// [`StackCache::probe_shared`] is told.
    pub reused: usize,
    /// Decisions parsed from the string's bytes.
    pub parsed: usize,
}

/// Why [`StackCache::ingest`] produced no schedule.
#[derive(Debug, PartialEq, Eq)]
pub enum IngestError {
    /// The string uses escapes the line walk does not read; decode it
    /// in full ([`Json::parse`](crate::json::Json::parse)) and parse
    /// that with [`Schedule::from_text`].
    Escaped,
    /// The schedule is malformed.
    Parse(ParseError),
}

impl From<Escaped> for IngestError {
    fn from(_: Escaped) -> Self {
        IngestError::Escaped
    }
}

impl From<ParseError> for IngestError {
    fn from(e: ParseError) -> Self {
        IngestError::Parse(e)
    }
}

/// The last fully parsed schedule string submitted under one key.
struct Retained {
    /// The string as it sat in the request line, undecoded.
    raw: String,
    /// Its finished parse; line offsets are offsets into `raw`.
    parse: TextParse,
    crash_key: u64,
    /// Hasher states of this schedule's prefixes at checkpoint marks
    /// ([`PrefixHasher::absorbed`] is the mark), ascending.
    snapshots: Vec<PrefixHasher>,
}

/// Length of the longest common prefix, compared a block at a time
/// (slice equality is `memcmp`).
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    const BLOCK: usize = 1024;
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + BLOCK <= n && a[i..i + BLOCK] == b[i..i + BLOCK] {
        i += BLOCK;
    }
    i + a[i..n]
        .iter()
        .zip(&b[i..n])
        .take_while(|(x, y)| x == y)
        .count()
}

/// The hasher state of `schedule` at each of `marks` (ascending, all ≤
/// its length), then at its full length — the one absorb loop behind
/// probing and checkpoint insertion. `known` are states of this very
/// schedule from an earlier pass; hashing starts after the longest run
/// of them that lines up with `marks`.
fn prefix_states(
    schedule: &Schedule,
    marks: &[u64],
    known: &[PrefixHasher],
) -> (Vec<PrefixHasher>, PrefixHasher) {
    let mut states: Vec<PrefixHasher> = marks
        .iter()
        .zip(known)
        .take_while(|(&mark, state)| state.absorbed() == mark)
        .map(|(_, &state)| state)
        .collect();
    let mut hasher = states
        .last()
        .copied()
        .unwrap_or_else(|| PrefixHasher::new(schedule));
    for d in &schedule.decisions[hasher.absorbed() as usize..] {
        while marks.get(states.len()) == Some(&hasher.absorbed()) {
            states.push(hasher);
        }
        hasher.absorb(d);
    }
    while states.len() < marks.len() {
        debug_assert_eq!(marks[states.len()], schedule.len() as u64);
        states.push(hasher);
    }
    (states, hasher)
}

/// A cached value with the epoch of its last use.
struct Stamped<T> {
    value: T,
    epoch: u64,
}

/// One cap's recency order: an element `(epoch, scenario key, slot)`
/// per stored value, so the first element names the least recently
/// used one — and, among values stamped by one store, the smallest slot.
struct Lru<S>(BTreeSet<(u64, Arc<str>, S)>);

impl<S: Copy + Ord + std::hash::Hash> Lru<S> {
    /// Stores `value` at `slot` of `name`'s `map`, stamped `epoch`.
    fn put<T>(
        &mut self,
        map: &mut HashMap<S, Stamped<T>>,
        name: &Arc<str>,
        slot: S,
        value: T,
        epoch: u64,
    ) {
        if let Some(old) = map.insert(slot, Stamped { value, epoch }) {
            self.0.remove(&(old.epoch, Arc::clone(name), slot));
        }
        self.0.insert((epoch, Arc::clone(name), slot));
    }

    /// The value at `slot` of `name`'s `map`, re-stamped `epoch`.
    fn touch<'m, T>(
        &mut self,
        map: &'m mut HashMap<S, Stamped<T>>,
        name: &Arc<str>,
        slot: S,
        epoch: u64,
    ) -> Option<&'m T> {
        let hit = map.get_mut(&slot)?;
        self.0.remove(&(hit.epoch, Arc::clone(name), slot));
        self.0.insert((epoch, Arc::clone(name), slot));
        hit.epoch = epoch;
        Some(&hit.value)
    }

    /// Takes the least recently used `(scenario key, slot)` out of the
    /// order; the caller removes the value.
    fn pop_oldest(&mut self) -> (Arc<str>, S) {
        let (_, name, slot) = self.0.pop_first().expect("non-empty over cap");
        (name, slot)
    }
}

/// Everything cached under one scenario key (`graph_key/stack_key`).
struct KeyEntry<P: Process> {
    /// The scenario key, shared with the map and the LRU orders.
    name: Arc<str>,
    /// `(depth, prefix hash)` → checkpoint of that many messages at that
    /// prefix. The depths are the key's marks: what a probe hashes a
    /// schedule's prefixes at. Stored checkpoints are immutable, hence
    /// the [`Arc`] (see [`Probe::Incremental`]).
    checkpoints: HashMap<(u64, u64), Stamped<Arc<Checkpoint<P>>>>,
    /// Exact hash → stored result.
    results: HashMap<u64, Stamped<StoredResult>>,
    /// The schedule text [`StackCache::ingest`] reads the next one
    /// against. It goes with the key's last checkpoint; a key without
    /// any holds one only until another such key ingests (its
    /// checkpoints come with its first cold run).
    retained: Option<Retained>,
}

impl<P: Process + Clone> KeyEntry<P> {
    /// Whether nothing is left to keep the key for.
    fn is_vacant(&self) -> bool {
        self.checkpoints.is_empty() && self.results.is_empty() && self.retained.is_none()
    }

    /// [`StackCache::probe_keys`] within this key.
    fn probe_keys(&mut self, schedule: &Schedule, shared: usize) -> (u64, Vec<(u64, u64)>) {
        let depths = self.checkpoints.keys().map(|&(depth, _)| depth);
        let mut usable: Vec<u64> = depths.filter(|&d| d <= schedule.len() as u64).collect();
        usable.sort_unstable();
        usable.dedup();
        // The retained states describe this schedule as far as it is the
        // retained one: `shared` decisions deep, and only under an equal
        // crash key, which seeds every state.
        let mut retained = self
            .retained
            .as_mut()
            .filter(|r| r.crash_key == schedule.crash_key());
        let covers = |states: &[PrefixHasher]| {
            states.partition_point(|state| state.absorbed() <= shared as u64)
        };
        let known = retained
            .as_deref()
            .map_or(&[][..], |r| &r.snapshots[..covers(&r.snapshots)]);
        let (states, full) = prefix_states(schedule, &usable, known);
        if let Some(r) = retained.as_mut() {
            // What was hashed within the shared prefix holds for the
            // retained text too: keep whichever list reaches deeper.
            let ours = &states[..covers(&states)];
            let depth = |states: &[PrefixHasher]| states.last().map(PrefixHasher::absorbed);
            if depth(ours) >= depth(&r.snapshots) {
                r.snapshots = ours.to_vec();
            }
        }
        let keys_at = usable
            .iter()
            .zip(&states)
            .map(|(&mark, state)| (mark, state.key()))
            .collect();
        let exact = full.key() ^ fallback_salt(schedule.fallback);
        debug_assert_eq!(exact, StackCache::<P>::exact_schedule_hash(schedule));
        (exact, keys_at)
    }
}

/// Cheap distinct tweak per fallback; stays stable across runs.
fn fallback_salt(fallback: Fallback) -> u64 {
    match fallback {
        Fallback::WorstCase => 0x9E37_79B9_7F4A_7C15,
        Fallback::Rush => 0xC2B2_AE3D_27D4_EB4F,
    }
}

/// A cold run's checkpoints keyed by the schedule that describes the
/// run, with that schedule's [`StackCache::exact_schedule_hash`]: what
/// [`StackCache::store`] takes. Keying touches no cache, so it runs
/// where the checkpoints were made; the one hashing pass over the
/// schedule yields every prefix key and the exact hash.
pub(crate) struct Keyed<P: Process> {
    /// The checkpoints within the schedule's horizon, ascending, each
    /// with the [`prefix_key`](Schedule::prefix_key) of the decisions
    /// baked into it.
    checkpoints: Vec<(u64, Checkpoint<P>)>,
    /// The schedule's exact-result key.
    exact: u64,
}

impl<P: Process> Keyed<P> {
    /// Keys `checkpoints` (ascending, as a cold run of `schedule` made
    /// them), dropping those past the schedule's recorded horizon: past
    /// it the oracle was in fallback territory, and a different
    /// submitted schedule extending the same prefix could legitimately
    /// diverge there.
    pub(crate) fn new(schedule: &Schedule, mut checkpoints: Vec<Checkpoint<P>>) -> Keyed<P> {
        let within = checkpoints.partition_point(|cp| cp.messages() <= schedule.len() as u64);
        checkpoints.truncate(within);
        let depths: Vec<u64> = checkpoints.iter().map(Checkpoint::messages).collect();
        let (states, full) = prefix_states(schedule, &depths, &[]);
        Keyed {
            checkpoints: states
                .iter()
                .map(PrefixHasher::key)
                .zip(checkpoints)
                .collect(),
            exact: full.key() ^ fallback_salt(schedule.fallback),
        }
    }
}

/// The entry of `scenario_key` in `keys`, created empty if it has none.
fn entry<'k, P: Process>(
    keys: &'k mut HashMap<Arc<str>, KeyEntry<P>>,
    scenario_key: &str,
) -> &'k mut KeyEntry<P> {
    if !keys.contains_key(scenario_key) {
        let name: Arc<str> = Arc::from(scenario_key);
        let empty = KeyEntry {
            name: Arc::clone(&name),
            checkpoints: HashMap::new(),
            results: HashMap::new(),
            retained: None,
        };
        keys.insert(name, empty);
    }
    keys.get_mut(scenario_key).expect("just ensured")
}

/// Cache for one protocol stack type `P`, covering every graph the
/// service has seen: one entry (`KeyEntry`) per scenario key. LRU epochs,
/// the two caps, their recency orders and the eviction count are global.
pub struct StackCache<P: Process> {
    keys: HashMap<Arc<str>, KeyEntry<P>>,
    /// Recency of every stored checkpoint; slot `(depth, prefix hash)`.
    checkpoint_lru: Lru<(u64, u64)>,
    /// Recency of every stored result; slot = its exact hash.
    result_lru: Lru<u64>,
    caps: CacheCaps,
    epoch: u64,
    evictions: u64,
}

impl<P: Process + Clone> StackCache<P> {
    /// An empty cache with the given caps.
    pub fn new(caps: CacheCaps) -> Self {
        StackCache {
            keys: HashMap::new(),
            checkpoint_lru: Lru(BTreeSet::new()),
            result_lru: Lru(BTreeSet::new()),
            caps,
            epoch: 0,
            evictions: 0,
        }
    }

    /// Checkpoints + results currently held.
    pub fn len(&self) -> (usize, usize) {
        (self.checkpoint_lru.0.len(), self.result_lru.0.len())
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == (0, 0)
    }

    /// Total evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn tick(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// The exact-result key of a full schedule: its complete prefix key
    /// extended with the fallback policy (which *does* govern replays
    /// past the horizon, so it belongs in the exact key even though
    /// prefix keys exclude it).
    pub fn exact_schedule_hash(schedule: &Schedule) -> u64 {
        schedule.prefix_key(schedule.len()) ^ fallback_salt(schedule.fallback)
    }

    /// Reads a submission's `schedule` string as it sits in the request
    /// line (`raw`, undecoded): finds the longest byte prefix it shares
    /// with the text retained for `scenario_key`, rewinds that text's
    /// parse to the last decision line before the first difference, and
    /// feeds the same parser only the lines from there on. With nothing
    /// retained the shared prefix is empty and this is a cold parse.
    ///
    /// A text that parses replaces the retained one when it could copy
    /// less than half of that one's decisions, or none is retained.
    ///
    /// # Errors
    ///
    /// [`IngestError::Parse`] carries the [`ParseError`]
    /// [`Schedule::from_text`] gives for the decoded string;
    /// [`IngestError::Escaped`] asks the caller to decode in full.
    pub fn ingest(&mut self, scenario_key: &str, raw: &str) -> Result<Ingested, IngestError> {
        let retained = self
            .keys
            .get(scenario_key)
            .and_then(|e| e.retained.as_ref());
        let (mut parse, at) = match retained {
            Some(r) => r
                .parse
                .rewind(common_prefix(r.raw.as_bytes(), raw.as_bytes())),
            None => (TextParse::default(), 0),
        };
        let reused = parse.decisions().len();
        let keep = retained.is_some_and(|r| 2 * reused >= r.parse.decisions().len());
        let mut lines = RawLines::new(&raw[at..]);
        while let Some(line) = lines.next() {
            let (offset, line) = line?;
            parse.line(at + offset, line)?;
        }
        let schedule = if keep {
            parse.into_schedule()?
        } else {
            let schedule = parse.clone().into_schedule()?;
            // A key whose runs never store a checkpoint must not hold a
            // text forever: this one displaces every such key's.
            self.keys.retain(|_, e| {
                if e.checkpoints.is_empty() {
                    e.retained = None;
                }
                !e.is_vacant()
            });
            entry(&mut self.keys, scenario_key).retained = Some(Retained {
                raw: raw.to_string(),
                parse,
                crash_key: schedule.crash_key(),
                snapshots: Vec::new(),
            });
            schedule
        };
        Ok(Ingested {
            reused,
            parsed: schedule.len() - reused,
            schedule,
        })
    }

    /// Probes for the best way to evaluate `schedule` under
    /// `scenario_key` (= `graph_key/stack_key`). Exact result first,
    /// then the deepest checkpoint whose prefix key matches, else miss.
    /// A hit bumps the entry's LRU epoch.
    ///
    /// Returns the schedule's [`StackCache::exact_schedule_hash`]
    /// alongside the probe outcome: the hash falls out of the same
    /// O(len) pass that computes the per-mark prefix keys, and the
    /// caller reuses it when storing the eventual result — hashing the
    /// full decision stream is the probe's dominant cost, so it is paid
    /// exactly once per submission.
    pub fn probe(&mut self, scenario_key: &str, schedule: &Schedule) -> (u64, Probe<P>) {
        self.probe_shared(scenario_key, schedule, 0)
    }

    /// [`StackCache::probe`] for a schedule whose first `shared`
    /// decisions are those of the text retained for `scenario_key`
    /// ([`Ingested::reused`]): hashing continues from the retained state
    /// at the deepest checkpoint mark they cover.
    pub fn probe_shared(
        &mut self,
        scenario_key: &str,
        schedule: &Schedule,
        shared: usize,
    ) -> (u64, Probe<P>) {
        let now = self.tick();
        let Some(entry) = self.keys.get_mut(scenario_key) else {
            return (Self::exact_schedule_hash(schedule), Probe::Miss);
        };
        let (exact, keys_at) = entry.probe_keys(schedule, shared);
        let name = &entry.name;
        if let Some(hit) = self.result_lru.touch(&mut entry.results, name, exact, now) {
            return (exact, Probe::Full(Box::new(hit.clone())));
        }
        for &(depth, key) in keys_at.iter().rev() {
            let slot = (depth, key);
            if let Some(hit) = self
                .checkpoint_lru
                .touch(&mut entry.checkpoints, name, slot, now)
            {
                let checkpoint = Arc::clone(hit);
                return (exact, Probe::Incremental { checkpoint, depth });
            }
        }
        (exact, Probe::Miss)
    }

    /// What a probe looks up: the schedule's exact-result hash, and its
    /// [`prefix_key`](Schedule::prefix_key) at every checkpoint mark of
    /// `scenario_key` within its length, as `(mark, key)` ascending.
    /// `shared` as for [`StackCache::probe_shared`]; the result does not
    /// depend on it.
    pub fn probe_keys(
        &mut self,
        scenario_key: &str,
        schedule: &Schedule,
        shared: usize,
    ) -> (u64, Vec<(u64, u64)>) {
        match self.keys.get_mut(scenario_key) {
            Some(entry) => entry.probe_keys(schedule, shared),
            None => (Self::exact_schedule_hash(schedule), Vec::new()),
        }
    }

    /// Stores the checkpoints of a cold run of `schedule`, each keyed
    /// by the prefix it bakes in. Checkpoints whose message mark
    /// exceeds the schedule's recorded horizon are skipped: past the
    /// horizon the oracle was in fallback territory, and a different
    /// submitted schedule extending the same prefix could legitimately
    /// diverge there. The cache keeps clones of the borrowed snapshots;
    /// a clone shares the snapshot's pages and queue segments rather
    /// than copying simulation state, and the service moves a run's own
    /// in.
    pub fn insert_checkpoints(
        &mut self,
        scenario_key: &str,
        schedule: &Schedule,
        cps: &[Checkpoint<P>],
    ) {
        self.store(scenario_key, Keyed::new(schedule, cps.to_vec()), None);
    }

    /// Stores an exact schedule result.
    pub fn insert_schedule_result(
        &mut self,
        scenario_key: &str,
        schedule: &Schedule,
        result: StoredResult,
    ) {
        self.store(scenario_key, Keyed::new(schedule, Vec::new()), Some(result));
    }

    /// The one store path for a keyed run: its checkpoints, moved into
    /// the cache under one epoch, then `result` (if any) under the exact
    /// hash of the schedule that keyed them. Each cap is enforced as it
    /// fills, least recently used first.
    pub(crate) fn store(
        &mut self,
        scenario_key: &str,
        keyed: Keyed<P>,
        result: Option<StoredResult>,
    ) {
        if !keyed.checkpoints.is_empty() {
            let epoch = self.tick();
            let entry = entry(&mut self.keys, scenario_key);
            let lru = &mut self.checkpoint_lru;
            for (key, cp) in keyed.checkpoints {
                let slot = (cp.messages(), key);
                let value = Arc::new(cp);
                lru.put(&mut entry.checkpoints, &entry.name, slot, value, epoch);
            }
            while self.checkpoint_lru.0.len() > self.caps.checkpoints {
                let (name, slot) = self.checkpoint_lru.pop_oldest();
                self.evict(&name, |e| {
                    e.checkpoints.remove(&slot);
                    if e.checkpoints.is_empty() {
                        e.retained = None;
                    }
                });
            }
        }
        if let Some(result) = result {
            self.insert_exact(scenario_key, keyed.exact, result);
        }
    }

    /// Looks up an exact (non-schedule) result by its canonical
    /// mode-key hash.
    pub fn get_exact(&mut self, scenario_key: &str, hash: u64) -> Option<StoredResult> {
        let now = self.tick();
        let entry = self.keys.get_mut(scenario_key)?;
        let hit = self
            .result_lru
            .touch(&mut entry.results, &entry.name, hash, now)?;
        Some(hit.clone())
    }

    /// Stores an exact (non-schedule) result under a mode-key hash.
    pub fn insert_exact(&mut self, scenario_key: &str, hash: u64, value: StoredResult) {
        let epoch = self.tick();
        let entry = entry(&mut self.keys, scenario_key);
        let (results, name) = (&mut entry.results, &entry.name);
        self.result_lru.put(results, name, hash, value, epoch);
        while self.result_lru.0.len() > self.caps.results {
            let (name, hash) = self.result_lru.pop_oldest();
            self.evict(&name, |e| drop(e.results.remove(&hash)));
        }
    }

    /// Evicts from `scenario_key`'s entry what `remove` removes, and the
    /// entry with it once it is vacant.
    fn evict(&mut self, scenario_key: &str, remove: impl FnOnce(&mut KeyEntry<P>)) {
        let entry = self.keys.get_mut(scenario_key).expect("victim exists");
        remove(entry);
        if entry.is_vacant() {
            self.keys.remove(scenario_key);
        }
        self.evictions += 1;
    }
}

/// FNV-1a over a string — used for mode keys and state digests.
pub fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_adversary::ScheduleOracle;
    use csp_algo::flood::Flood;
    use csp_graph::generators::{self, WeightDist};
    use csp_graph::{NodeId, Weight};
    use csp_sim::{DelayModel, EvalPool, ModelOracle, NoCapture, SimTime, Simulator};

    fn recorded_schedule(seed: u64) -> (csp_graph::WeightedGraph, Schedule) {
        let g = generators::connected_gnp(10, 0.4, WeightDist::Uniform(1, 9), seed);
        let (_, s) = csp_adversary::record(
            &g,
            |v, _| Flood::new(v == NodeId::new(0)),
            ModelOracle::new(DelayModel::Uniform, seed),
            csp_adversary::Fallback::WorstCase,
        );
        (g, s)
    }

    #[test]
    fn probe_finds_deepest_shared_prefix() {
        let (g, schedule) = recorded_schedule(3);
        let mut cache: StackCache<Flood> = StackCache::new(CacheCaps::default());
        let key = "g/s";

        let mut cps = Vec::new();
        let sim = Simulator::new(&g);
        let cold = sim
            .run_with_checkpoints(
                &mut ScheduleOracle::new(&schedule),
                |v, _| Flood::new(v == NodeId::new(0)),
                5,
                &mut cps,
            )
            .unwrap();
        assert!(cps.len() >= 2, "need several checkpoints for the test");
        cache.insert_checkpoints(key, &schedule, &cps);

        // A tail-mutated schedule shares every checkpointed prefix —
        // probe must return the deepest stored one.
        let mut tweaked = schedule.clone();
        let last = tweaked.decisions.len() - 1;
        tweaked.decisions[last].delay = tweaked.decisions[last].weight.max(1);
        let (exact, probe) = cache.probe(key, &tweaked);
        assert_eq!(exact, StackCache::<Flood>::exact_schedule_hash(&tweaked));
        match probe {
            Probe::Incremental { checkpoint, depth } => {
                let deepest = cps
                    .iter()
                    .map(|c| c.messages())
                    .filter(|&m| m <= last as u64)
                    .max()
                    .unwrap();
                assert_eq!(depth, deepest);
                assert_eq!(checkpoint.messages(), deepest);
                // And the resume reproduces the cold run of `tweaked`
                // exactly when the tails agree (here: tail of 1).
                let mut pool = EvalPool::new();
                let mut oracle = ScheduleOracle::new(&tweaked);
                sim.execute(&*checkpoint, &mut pool, &mut oracle, &mut (), NoCapture)
                    .unwrap();
                let resumed = pool.into_run();
                let cold_tweaked = Simulator::new(&g)
                    .run_with_oracle(&mut ScheduleOracle::new(&tweaked), |v, _| {
                        Flood::new(v == NodeId::new(0))
                    })
                    .unwrap();
                assert_eq!(resumed.cost, cold_tweaked.cost);
            }
            other => panic!("expected incremental, got {other:?}"),
        }

        // A schedule that diverges at decision 0 misses entirely
        // (unless a mark-0 checkpoint exists, which `every=5` avoids).
        let mut diverged = schedule.clone();
        diverged.decisions[0].delay = if diverged.decisions[0].delay == 1 {
            diverged.decisions[0].weight
        } else {
            1
        };
        assert!(matches!(cache.probe(key, &diverged).1, Probe::Miss));
        // Different crash set: miss, even with identical decisions.
        let mut crashed = schedule.clone();
        crashed
            .plan
            .churn
            .push((NodeId::new(1), vec![SimTime::new(4)]));
        assert!(matches!(cache.probe(key, &crashed).1, Probe::Miss));
        // Churn divergence: a rejoin of an already-crashed vertex, or a
        // mid-run weight revision, changes the fault key — miss, even
        // with identical decisions.
        let mut rejoined = crashed.clone();
        rejoined.plan.churn[0].1.push(SimTime::new(9));
        assert!(matches!(cache.probe(key, &rejoined).1, Probe::Miss));
        let mut drifted = schedule.clone();
        let revised = (csp_graph::EdgeId::new(0), SimTime::new(3), Weight::new(5));
        drifted.plan.drift.push(revised);
        assert!(matches!(cache.probe(key, &drifted).1, Probe::Miss));
        // Wrong scenario key: miss.
        assert!(matches!(cache.probe("other/s", &tweaked).1, Probe::Miss));

        // Exact result round-trip.
        cache.insert_schedule_result(
            key,
            &schedule,
            StoredResult {
                report: cold.cost.clone(),
                states_digest: fnv1a(&format!("{:?}", cold.states)),
                schedule_text: None,
                worst_case: None,
                reduction: None,
            },
        );
        match cache.probe(key, &schedule).1 {
            Probe::Full(hit) => assert_eq!(hit.report, cold.cost),
            other => panic!("expected full hit, got {other:?}"),
        }
        // Same decisions, different fallback: not the same exact result.
        let mut refit = schedule.clone();
        refit.fallback = csp_adversary::Fallback::Rush;
        assert!(!matches!(cache.probe(key, &refit).1, Probe::Full(_)));
    }

    #[test]
    fn a_retained_text_lives_and_dies_with_its_keys_marks() {
        let (g, schedule) = recorded_schedule(3);
        let raw = schedule.to_text().replace('\n', "\\n");
        let len = schedule.len();
        let mut cps = Vec::new();
        Simulator::new(&g)
            .run_with_checkpoints(
                &mut ScheduleOracle::new(&schedule),
                |v, _| Flood::new(v == NodeId::new(0)),
                5,
                &mut cps,
            )
            .unwrap();
        assert!(cps.len() >= 2);
        let mut cache: StackCache<Flood> = StackCache::new(CacheCaps {
            checkpoints: cps.len(),
            results: 4,
        });

        // The first text under a key is parsed whole and retained; the
        // same text again copies all but the line it rewinds to.
        let first = cache.ingest("a", &raw).unwrap();
        assert_eq!((first.reused, first.parsed), (0, len));
        assert_eq!(first.schedule, schedule);
        assert_eq!(cache.ingest("a", &raw).unwrap().reused, len - 1);
        // A key with no marks holds its text only until another does.
        cache.ingest("b", &raw).unwrap();
        assert_eq!(cache.ingest("a", &raw).unwrap().reused, 0);
        // With marks it stays, whatever other keys do...
        cache.insert_checkpoints("a", &schedule, &cps);
        cache.ingest("b", &raw).unwrap();
        assert_eq!(cache.ingest("a", &raw).unwrap().reused, len - 1);
        // ...until its last checkpoint is evicted.
        cache.insert_checkpoints("b", &schedule, &cps);
        assert_eq!(cache.len().0, cps.len(), "the cap holds: a's are gone");
        assert_eq!(cache.ingest("a", &raw).unwrap().reused, 0);
        assert_eq!(cache.ingest("b", &raw).unwrap().reused, len - 1);
    }

    fn checkpoints_of(
        g: &csp_graph::WeightedGraph,
        schedule: &Schedule,
        every: u64,
    ) -> Vec<Checkpoint<Flood>> {
        let mut cps = Vec::new();
        Simulator::new(g)
            .run_with_checkpoints(
                &mut ScheduleOracle::new(schedule),
                |v, _| Flood::new(v == NodeId::new(0)),
                every,
                &mut cps,
            )
            .unwrap();
        cps
    }

    fn empty_result() -> StoredResult {
        StoredResult {
            report: CostReport::new(0),
            states_digest: 0,
            schedule_text: None,
            worst_case: None,
            reduction: None,
        }
    }

    /// `schedule` with its last decision retimed: every checkpoint
    /// short of its full length still covers a prefix of it.
    fn retimed_last(schedule: &Schedule) -> Schedule {
        let mut tweaked = schedule.clone();
        let d = tweaked.decisions.last_mut().unwrap();
        d.delay = if d.delay == d.weight { 1 } else { d.weight };
        tweaked
    }

    /// Checkpoints + results, counted entry by entry.
    fn recount(cache: &StackCache<Flood>) -> (usize, usize) {
        let entries = cache.keys.values();
        entries.fold((0, 0), |(c, r), e| {
            (c + e.checkpoints.len(), r + e.results.len())
        })
    }

    #[test]
    fn eviction_keeps_caps_and_counts() {
        let (g, schedule) = recorded_schedule(9);
        let mut cache: StackCache<Flood> = StackCache::new(CacheCaps {
            checkpoints: 4,
            results: 2,
        });
        // Results: insert 5 under distinct hashes, cap 2 holds.
        for i in 0..5u64 {
            cache.insert_exact("k", i, empty_result());
            assert_eq!(cache.len(), recount(&cache));
        }
        assert_eq!(cache.len().1, 2);
        assert_eq!(cache.evictions(), 3);
        // The most recent insert must have survived LRU.
        assert!(cache.get_exact("k", 4).is_some());
        assert!(cache.get_exact("k", 0).is_none());
        // Checkpoints: one store past the cap evicts its excess.
        let cps = checkpoints_of(&g, &schedule, 3);
        assert!(cps.len() > 4, "need more checkpoints than the cap");
        cache.insert_checkpoints("k", &schedule, &cps);
        assert_eq!(cache.len(), (4, 2));
        assert_eq!(cache.len(), recount(&cache));
        assert_eq!(cache.evictions(), 3 + cps.len() as u64 - 4);
    }

    #[test]
    fn a_hit_refreshes_its_entry() {
        let (g, schedule) = recorded_schedule(3);
        let cps = checkpoints_of(&g, &schedule, 5);
        let mut cache: StackCache<Flood> = StackCache::new(CacheCaps {
            checkpoints: 2,
            results: 2,
        });
        // A `get_exact` hit: 0 is used after 1, so 1 goes first.
        cache.insert_exact("k", 0, empty_result());
        cache.insert_exact("k", 1, empty_result());
        assert!(cache.get_exact("k", 0).is_some());
        cache.insert_exact("k", 2, empty_result());
        assert!(cache.get_exact("k", 1).is_none());
        assert!(cache.get_exact("k", 0).is_some());
        // A probe hit: a's checkpoint is used after b's, so b's goes.
        cache.insert_checkpoints("a", &schedule, &cps[..1]);
        cache.insert_checkpoints("b", &schedule, &cps[..1]);
        let incremental = |p: Probe<Flood>| matches!(p, Probe::Incremental { .. });
        assert!(incremental(cache.probe("a", &schedule).1));
        cache.insert_checkpoints("c", &schedule, &cps[..1]);
        assert!(matches!(cache.probe("b", &schedule).1, Probe::Miss));
        assert!(incremental(cache.probe("a", &schedule).1));
        assert!(incremental(cache.probe("c", &schedule).1));
        assert_eq!(cache.len(), recount(&cache));
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn a_store_cut_by_the_cap_keeps_its_deepest_checkpoints() {
        // The seven checkpoints of one store share an epoch; b's four
        // push the cache two over its cap of nine. Whatever order the
        // entries hash in, a's two shallowest go, and a probe of a's
        // schedule resumes from its deepest.
        let (g, schedule) = recorded_schedule(3);
        let cps = checkpoints_of(&g, &schedule, 3);
        assert!(cps.len() >= 7 && cps[6].messages() < schedule.len() as u64);
        let tweaked = retimed_last(&schedule);
        let depths = |cps: &[Checkpoint<Flood>]| -> Vec<u64> {
            cps.iter().map(Checkpoint::messages).collect()
        };
        for _ in 0..32 {
            let mut cache: StackCache<Flood> = StackCache::new(CacheCaps {
                checkpoints: 9,
                results: 1,
            });
            cache.insert_checkpoints("a", &schedule, &cps[..7]);
            cache.insert_checkpoints("b", &schedule, &cps[..4]);
            assert_eq!(cache.evictions(), 2);
            let mut kept: Vec<u64> = cache.keys["a"].checkpoints.keys().map(|k| k.0).collect();
            kept.sort_unstable();
            assert_eq!(kept, depths(&cps[2..7]));
            match cache.probe("a", &tweaked).1 {
                Probe::Incremental { depth, .. } => assert_eq!(depth, cps[6].messages()),
                other => panic!("expected incremental, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_moved_store_answers_as_a_copied_one() {
        let (g, schedule) = recorded_schedule(5);
        let cps = checkpoints_of(&g, &schedule, 3);
        // A prefix of the run's schedule: the checkpoints past its
        // horizon must be dropped by both paths.
        let mut short = schedule.clone();
        short.decisions.truncate(schedule.len() * 2 / 3);
        assert!(cps.last().unwrap().messages() > short.len() as u64);
        let mut probes = vec![schedule.clone(), short.clone(), retimed_last(&short)];
        for at in (0..schedule.len()).step_by(4) {
            let mut tail = schedule.clone();
            let d = &mut tail.decisions[at];
            d.delay = if d.delay == d.weight { 1 } else { d.weight };
            probes.push(tail);
        }
        let seen = |probe: (u64, Probe<Flood>)| match probe {
            (exact, Probe::Full(_)) => (exact, 0, 0),
            (exact, Probe::Incremental { checkpoint, depth }) => {
                (exact, depth, checkpoint.messages())
            }
            (exact, Probe::Miss) => (exact, u64::MAX, 0),
        };
        let tight = CacheCaps {
            checkpoints: 3,
            results: 2,
        };
        for caps in [CacheCaps::default(), tight] {
            let mut moved: StackCache<Flood> = StackCache::new(caps);
            let mut copied: StackCache<Flood> = StackCache::new(caps);
            for (key, s) in [("a", &schedule), ("b", &short), ("a", &short)] {
                moved.store(key, Keyed::new(s, cps.clone()), None);
                copied.insert_checkpoints(key, s, &cps);
                assert_eq!(moved.len(), recount(&moved));
                assert_eq!(moved.len(), copied.len());
            }
            assert_eq!(moved.evictions(), copied.evictions());
            for key in ["a", "b"] {
                for p in &probes {
                    assert_eq!(seen(moved.probe(key, p)), seen(copied.probe(key, p)));
                }
            }
        }
    }
}
