//! Recorded fault schedules: the serializable unit of adversarial state.
//!
//! A [`Schedule`] is the complete transcript of one run's link
//! decisions, one [`Decision`] per metered send in dispatch order —
//! its delay, or the fact that it was dropped — plus the run's
//! [`FaultPlan`]. Because the simulator is deterministic given
//! an oracle, replaying a schedule (see [`crate::ScheduleOracle`])
//! reproduces the run exactly — same
//! [`CostReport`](csp_sim::CostReport), same trace, same final states.
//! Mutated or truncated schedules may diverge from the run that
//! produced them; past the recorded prefix (or on an edge mismatch) the
//! replay oracle falls back to the schedule's [`Fallback`] policy.
//!
//! # Text format
//!
//! Schedules serialize to one line-oriented plain-text grammar (no
//! external dependencies): a header, the fallback policy, the fault
//! plan's lines — `c` for a crash, `r` for a rejoin, `w` for a weight
//! revision — and one line per decision, `d` for a delivered send and
//! `x` for a dropped one (no delay: the message never arrives):
//!
//! ```text
//! csp-adversary-schedule v3
//! fallback worst-case
//! c 3 20
//! c 3 200
//! r 3 120
//! w 7 60 9
//! # index edge dir weight delay
//! d 0 3 1 16 16
//! x 1 7 0 4
//! ```
//!
//! A vertex may crash again after a rejoin, so it can own several `c`
//! lines; per vertex the `c` and `r` lines, merged by time, must
//! alternate starting with a crash — they are the vertex's toggle chain
//! in the [`FaultPlan`].
//!
//! [`Schedule::to_text`] and [`Schedule::save`] always write the `v3`
//! header. [`Schedule::from_text`] also accepts the `v1` and `v2`
//! headers that older files carry, under the same grammar: a `v1` or
//! `v2` text is a `v3` text with another header, so witnesses and
//! clients from before the dialects merged keep parsing. Blank lines
//! and `#` comments are ignored anywhere, so counterexample files can
//! carry a human-readable header.
//!
//! What makes a fault plan runnable — chains strictly increasing, ids
//! inside the graph — is decided in one place, [`FaultPlan::check`],
//! which the parser calls against the id space. The parser itself keeps
//! only what is about the *text*: the crash/rejoin alternation that
//! turns lines into a chain, and that no edge is revised twice at one
//! instant.

use csp_graph::{EdgeId, NodeId, Weight, MAX_INDEX};
use csp_sim::{FaultPlan, SimTime};
use std::error::Error;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;

/// One recorded link decision: what happened to the i-th metered send
/// of the run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Decision {
    /// Global dispatch index (0-based send order) — matches
    /// [`MsgInfo::index`](csp_sim::MsgInfo::index).
    pub index: u64,
    /// The edge the message crossed.
    pub edge: EdgeId,
    /// Direction bit, as in [`MsgInfo::dir`](csp_sim::MsgInfo::dir).
    pub dir: u8,
    /// Weight of the edge at record time (delays live in `[1, weight]`).
    pub weight: u64,
    /// The delay taken, in ticks. Meaningless when [`Decision::dropped`]
    /// is set (kept admissible so mutation can toggle the drop off).
    pub delay: u64,
    /// Whether the adversary dropped the message instead of delivering
    /// it: the send was metered but nothing arrived.
    pub dropped: bool,
}

impl Decision {
    /// The directed channel the message travelled: `2·edge + dir`.
    /// Per-directed-channel FIFO makes "the k-th decision on channel c"
    /// well defined independently of global interleaving — the key the
    /// trace machinery ([`crate::trace`]) replays and deduplicates by.
    pub fn channel(&self) -> usize {
        2 * self.edge.index() + self.dir as usize
    }
}

/// What the replay oracle does beyond the recorded prefix, or when the
/// run diverges from the recording (different edge or direction at some
/// index).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Fallback {
    /// Unrecorded messages take the full edge weight — reverting toward
    /// [`DelayModel::WorstCase`](csp_sim::DelayModel::WorstCase), the
    /// policy shrinking drives schedules to.
    #[default]
    WorstCase,
    /// Unrecorded messages take one tick.
    Rush,
}

/// A deterministic, serializable record of every link decision of a run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Schedule {
    /// Decisions in dispatch order; position `i` holds index `i`.
    pub decisions: Vec<Decision>,
    /// Policy for messages beyond (or diverging from) the recording.
    pub fallback: Fallback,
    /// The run's crash/rejoin toggle chains and weight revisions — the
    /// very value [`ScheduleOracle`](crate::ScheduleOracle) hands the
    /// runtime, so an edit here is an edit to the replayed run.
    /// Recordings and parsed texts list the chains by vertex (the order
    /// `c` and `r` lines are written in); nothing else about the plan is
    /// assumed here — a hand-built one is held to
    /// [`FaultPlan::check`] where it is parsed, served or run.
    pub plan: FaultPlan,
}

impl Schedule {
    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Whether the schedule records no decisions at all.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Number of delivered decisions strictly faster than the worst case
    /// (`delay < weight`) — together with [`Schedule::dropped_count`] the
    /// "interesting" part of an adversarial schedule, and the quantity
    /// shrinking minimizes.
    pub fn rushed(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| !d.dropped && d.delay < d.weight)
            .count()
    }

    /// Number of dropped decisions.
    pub fn dropped_count(&self) -> usize {
        self.decisions.iter().filter(|d| d.dropped).count()
    }

    /// Whether this schedule records faults (crashes or drops) beyond
    /// pure delays.
    pub fn has_faults(&self) -> bool {
        !self.plan.churn.is_empty() || self.decisions.iter().any(|d| d.dropped)
    }

    /// The one emitter of the text format: the header, every crash (`c`)
    /// line in chain order, then every rejoin (`r`) line, the revisions
    /// (`w`), and the decisions.
    fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(w, "{}", Self::HEADER)?;
        match self.fallback {
            Fallback::WorstCase => writeln!(w, "fallback worst-case")?,
            Fallback::Rush => writeln!(w, "fallback rush")?,
        }
        // Even positions of a chain crash, odd positions rejoin.
        for (kind, first) in [('c', 0), ('r', 1)] {
            for (v, chain) in &self.plan.churn {
                for t in chain.iter().skip(first).step_by(2) {
                    writeln!(w, "{kind} {} {}", v.index(), t.get())?;
                }
            }
        }
        for (e, t, weight) in &self.plan.drift {
            writeln!(w, "w {} {} {}", e.index(), t.get(), weight.get())?;
        }
        writeln!(w, "# index edge dir weight delay")?;
        for d in &self.decisions {
            let (i, e) = (d.index, d.edge.index());
            if d.dropped {
                writeln!(w, "x {i} {e} {} {}", d.dir, d.weight)?;
            } else {
                writeln!(w, "d {i} {e} {} {} {}", d.dir, d.weight, d.delay)?;
            }
        }
        Ok(())
    }

    /// The header line [`Schedule::to_text`] and [`Schedule::save`]
    /// write.
    const HEADER: &'static str = "csp-adversary-schedule v3";

    /// Serializes to the plain-text format described in the
    /// [module docs](self), under the `v3` header.
    pub fn to_text(&self) -> String {
        let mut out = Vec::new();
        self.write_to(&mut out)
            .expect("writing to memory cannot fail");
        String::from_utf8(out).expect("the text format is ASCII")
    }

    /// Parses the plain-text format under any of its three headers
    /// (`v1`, `v2` or `v3` — one grammar) — a [`TextParse`] fed every
    /// line of `text`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the offending line on malformed
    /// input: wrong header, unknown fallback, non-contiguous indices, a
    /// delay outside `[1, weight]`, a vertex or edge id beyond
    /// [`MAX_INDEX`], trailing tokens, a vertex crashed twice without an
    /// intervening rejoin, an edge revised twice at one instant, or a
    /// fault plan [`FaultPlan::check`] rejects.
    pub fn from_text(text: &str) -> Result<Schedule, ParseError> {
        let mut parse = TextParse::default();
        for line in text.lines() {
            parse.line(line.as_ptr() as usize - text.as_ptr() as usize, line)?;
        }
        parse.into_schedule()
    }

    /// Canonical 64-bit key of the schedule's fault plan, independent of
    /// the order its chains and revisions are listed in. The plan is
    /// baked into a run at start (it is queried once), so *every* prefix
    /// key ([`Schedule::prefix_key`]) folds this in — schedules with
    /// different plans share no resumable prefix, no matter how their
    /// decision streams compare.
    ///
    /// Crashes fold in first, then rejoins and revisions under distinct
    /// salts, gated on presence, so every churn-free schedule keeps its
    /// exact historical key (committed witnesses and warm caches
    /// survived the addition of churn). The key reads the plan, never
    /// the text, so the header a schedule was submitted under does not
    /// enter it.
    pub fn crash_key(&self) -> u64 {
        let mut chains: Vec<&(NodeId, Vec<SimTime>)> = self.plan.churn.iter().collect();
        chains.sort_by_key(|(v, _)| *v);
        let fold = |mut h: u64, first: usize| {
            for (v, chain) in &chains {
                for t in chain.iter().skip(first).step_by(2) {
                    h = PrefixHasher::mix(h, v.index() as u64);
                    h = PrefixHasher::mix(h, t.get());
                }
            }
            h
        };
        let mut h = fold(PrefixHasher::seed(), 0);
        if chains.iter().any(|(_, chain)| chain.len() > 1) {
            h = fold(PrefixHasher::mix(h, Self::REJOIN_SALT), 1);
        }
        if !self.plan.drift.is_empty() {
            // (edge, at) pairs are unique in a parsed schedule, so
            // sorting canonicalizes without conflating conflicting
            // revisions.
            let mut drift: Vec<_> = self.plan.drift.iter().collect();
            drift.sort_by_key(|(e, t, _)| (*t, *e));
            h = PrefixHasher::mix(h, Self::DRIFT_SALT);
            for (e, t, w) in drift {
                h = PrefixHasher::mix(h, e.index() as u64);
                h = PrefixHasher::mix(h, t.get());
                h = PrefixHasher::mix(h, w.get());
            }
        }
        h
    }

    /// Domain separators for the churn sections of the key: a rejoin of
    /// vertex `v` at `t` must never collide with a crash of `v` at `t`.
    const REJOIN_SALT: u64 = 0x7265_6a6f_696e_2e76;
    const DRIFT_SALT: u64 = 0x6472_6966_742e_7633;

    /// Canonical key of the first `len` decisions together with the
    /// fault plan — the cache key an incremental evaluator uses to
    /// recognise that a submitted schedule extends a checkpointed one.
    ///
    /// The [`Fallback`] policy is deliberately excluded: it only governs
    /// sends *beyond* the recorded horizon, so it cannot affect the
    /// first `len` decisions of a replay. Equal keys ⟺ (with the usual
    /// 64-bit-hash caveat) equal fault plans and bitwise-equal decision
    /// prefixes, which is exactly the [`Checkpoint`](csp_sim::Checkpoint)
    /// oracle-agreement condition for indices below `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len > self.len()`.
    pub fn prefix_key(&self, len: usize) -> u64 {
        let mut h = PrefixHasher::new(self);
        for d in &self.decisions[..len] {
            h.absorb(d);
        }
        h.key()
    }

    /// Length of the longest shared decision prefix with `other`, or `0`
    /// when the fault plans differ (they apply from time zero, so
    /// differing plans invalidate even the empty prefix — see
    /// [`Schedule::crash_key`]).
    pub fn common_prefix_len(&self, other: &Schedule) -> usize {
        if self.crash_key() != other.crash_key() {
            return 0;
        }
        self.decisions
            .iter()
            .zip(&other.decisions)
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// Writes the schedule to `path`, prefixing `header` lines as `#`
    /// comments (pass `&[]` for none). Lines stream through a
    /// [`BufWriter`](std::io::BufWriter), so large schedules (searched
    /// runs easily record tens of thousands of decisions) never
    /// materialize as one giant in-memory string.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn save(&self, path: &Path, header: &[String]) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for h in header {
            writeln!(w, "# {h}")?;
        }
        self.write_to(&mut w)?;
        w.flush()
    }

    /// Reads and parses a schedule from `path`, buffering the read.
    ///
    /// # Errors
    ///
    /// I/O errors pass through; parse failures surface as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> io::Result<Schedule> {
        use std::io::Read;
        let mut text = String::new();
        io::BufReader::new(std::fs::File::open(path)?).read_to_string(&mut text)?;
        Schedule::from_text(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// The crash toggles of `plan` as `(chain, position)` pairs, chain by
/// chain: a chain's even positions crash, its odd positions rejoin.
pub(crate) fn crash_positions(plan: &FaultPlan) -> Vec<(usize, usize)> {
    (plan.churn.iter().enumerate())
        .flat_map(|(c, (_, chain))| (0..chain.len()).step_by(2).map(move |pos| (c, pos)))
        .collect()
}

/// A `c`, `r` or `w` line as read, before the lines of a text are
/// assembled into a [`FaultPlan`].
#[derive(Clone, Copy, Debug)]
enum FaultLine {
    /// A `c` line, or an `r` line when `rejoin` is set.
    Toggle { node: NodeId, at: u64, rejoin: bool },
    Drift {
        edge: EdgeId,
        at: u64,
        weight: Weight,
    },
}

/// A parse of the text format, fed one line at a time — the one parser
/// behind [`Schedule::from_text`].
///
/// Besides the schedule it remembers where in the text each decision's
/// line starts, so that a consumer holding a second text that begins
/// with the same bytes can [`rewind`](TextParse::rewind) to the last
/// decision line before the first difference and feed only the lines
/// that follow: a line-oriented format parses a byte-identical prefix
/// that ends at a line start to an identical state. Offsets are the
/// caller's — whatever coordinate it passes to [`TextParse::line`] — so
/// a text may be walked in an encoded form (`csp-serve` walks the
/// undecoded JSON string).
#[derive(Clone, Debug, Default)]
pub struct TextParse {
    /// Whether the header line has been read.
    header: bool,
    fallback: Option<Fallback>,
    /// Lines fed so far.
    lines: usize,
    decisions: Vec<Decision>,
    /// `(offset, 1-based line number)` of each decision's line.
    starts: Vec<(usize, usize)>,
    /// Fault lines in text order, each with the offset of its line.
    faults: Vec<(usize, FaultLine)>,
}

impl TextParse {
    /// The decisions read so far.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// The state this parse was in when it reached the last decision
    /// line starting at or before `offset`, and that line's offset — a
    /// fresh parse and `0` when no decision line starts that early.
    pub fn rewind(&self, offset: usize) -> (TextParse, usize) {
        let k = self.starts.partition_point(|&(at, _)| at <= offset);
        let Some(&(at, line)) = k.checked_sub(1).map(|k| &self.starts[k]) else {
            return (TextParse::default(), 0);
        };
        // Room for as many decisions as this text had: the text about
        // to be fed is a variant of it, and growing a copied prefix by
        // its first push would copy it a second time.
        fn prefix<T: Copy>(all: &[T], len: usize) -> Vec<T> {
            let mut v = Vec::with_capacity(all.len());
            v.extend_from_slice(&all[..len]);
            v
        }
        let parse = TextParse {
            header: self.header,
            fallback: self.fallback,
            lines: line - 1,
            decisions: prefix(&self.decisions, k - 1),
            starts: prefix(&self.starts, k - 1),
            faults: self.faults[..self.faults.partition_point(|&(o, _)| o < at)].to_vec(),
        };
        (parse, at)
    }

    /// Reads the next line of the text (without its terminator), which
    /// starts at `offset`.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] naming this line; the parse is then spent.
    pub fn line(&mut self, offset: usize, line: &str) -> Result<(), ParseError> {
        self.lines += 1;
        let ln = self.lines;
        let fail = |msg: &str| ParseError {
            line: ln,
            msg: msg.to_string(),
        };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(());
        }
        if !self.header {
            if !matches!(
                line,
                "csp-adversary-schedule v1" | "csp-adversary-schedule v2" | Schedule::HEADER
            ) {
                return Err(fail(
                    "expected header `csp-adversary-schedule v1`, `v2` or `v3`",
                ));
            }
            self.header = true;
            return Ok(());
        }
        if self.fallback.is_none() {
            self.fallback = Some(match line {
                "fallback worst-case" => Fallback::WorstCase,
                "fallback rush" => Fallback::Rush,
                _ => return Err(fail("expected `fallback worst-case` or `fallback rush`")),
            });
            return Ok(());
        }

        let mut parts = line.split_ascii_whitespace();
        let kind = parts.next().expect("non-empty line has a first token");
        let mut num = |what: &str| -> Result<u64, ParseError> {
            parts
                .next()
                .ok_or_else(|| fail(&format!("missing {what}")))?
                .parse::<u64>()
                .map_err(|_| fail(&format!("malformed {what}")))
        };
        // Ids come from outside the program: `NodeId::new` / `EdgeId::new`
        // assert the id space, so it is checked here first.
        let id = |what: &str, index: u64| -> Result<usize, ParseError> {
            usize::try_from(index)
                .ok()
                .filter(|&i| i <= MAX_INDEX)
                .ok_or_else(|| fail(&format!("{what} exceeds the id space (max {MAX_INDEX})")))
        };
        match kind {
            "c" | "r" => {
                let rejoin = kind == "r";
                let node = NodeId::new(id("node", num("node")?)?);
                let at = num("time")?;
                if parts.next().is_some() {
                    return Err(fail(if rejoin {
                        "trailing tokens on rejoin line"
                    } else {
                        "trailing tokens on crash line"
                    }));
                }
                // A recrash needs an intervening rejoin: the alternation
                // check at the end enforces it.
                self.faults
                    .push((offset, FaultLine::Toggle { node, at, rejoin }));
            }
            "w" => {
                let edge = EdgeId::new(id("edge", num("edge")?)?);
                let at = num("time")?;
                let weight = num("weight")?;
                if parts.next().is_some() {
                    return Err(fail("trailing tokens on drift line"));
                }
                if weight == 0 {
                    return Err(fail("drift weight must be at least 1"));
                }
                let weight = Weight::new(weight);
                self.faults
                    .push((offset, FaultLine::Drift { edge, at, weight }));
            }
            "d" | "x" => {
                let dropped = kind == "x";
                let index = num("index")?;
                let edge = EdgeId::new(id("edge", num("edge")?)?);
                let dir = num("dir")?;
                let weight = num("weight")?;
                let delay = if dropped { weight } else { num("delay")? };
                if parts.next().is_some() {
                    return Err(fail("trailing tokens on decision line"));
                }
                if index != self.decisions.len() as u64 {
                    return Err(fail("decision indices must be contiguous from 0"));
                }
                if dir > 1 {
                    return Err(fail("dir must be 0 or 1"));
                }
                if weight == 0 || delay == 0 || delay > weight {
                    return Err(fail("delay must lie in [1, weight]"));
                }
                self.decisions.push(Decision {
                    index,
                    edge,
                    dir: dir as u8,
                    weight,
                    delay,
                    dropped,
                });
                self.starts.push((offset, ln));
            }
            _ => return Err(fail("expected a `d`, `x`, `c`, `r` or `w` line")),
        }
        Ok(())
    }

    /// Ends the text: the schedule read, if what was fed is a complete
    /// one. Its chains are listed by vertex.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] at line `0` when the header or `fallback` line
    /// never came, a vertex's `c` and `r` lines do not alternate, an
    /// edge is revised twice at one instant, or [`FaultPlan::check`]
    /// rejects the assembled plan.
    pub fn into_schedule(self) -> Result<Schedule, ParseError> {
        let fail = |msg: &str| ParseError {
            line: 0,
            msg: msg.to_string(),
        };
        if !self.header {
            return Err(fail("empty schedule"));
        }
        let fallback = self
            .fallback
            .ok_or_else(|| fail("missing `fallback` line"))?;
        let mut plan = FaultPlan::default();
        // (vertex, time, rejoin): sorted, a vertex's lines are adjacent
        // and in time order, a crash ahead of a rejoin at a tie.
        let mut toggles = Vec::new();
        for (_, fault) in self.faults {
            match fault {
                FaultLine::Toggle { node, at, rejoin } => toggles.push((node, at, rejoin)),
                FaultLine::Drift { edge, at, weight } => {
                    plan.drift.push((edge, SimTime::new(at), weight));
                }
            }
        }
        toggles.sort_unstable();
        for (node, at, rejoin) in toggles {
            if plan.churn.last().is_none_or(|(v, _)| *v != node) {
                plan.churn.push((node, Vec::new()));
            }
            let (_, chain) = plan.churn.last_mut().expect("just pushed");
            if rejoin != (chain.len() % 2 == 1) {
                return Err(fail(&format!(
                    "churn for vertex {} must alternate crash/rejoin starting with a crash",
                    node.index()
                )));
            }
            chain.push(SimTime::new(at));
        }
        // Two revisions of one edge at one instant would race.
        for (i, &(e, t, _)) in plan.drift.iter().enumerate() {
            if plan.drift[..i].iter().any(|&(f, u, _)| (f, u) == (e, t)) {
                return Err(fail(&format!(
                    "edge {} revised twice at time {}",
                    e.index(),
                    t.get()
                )));
            }
        }
        // The parser knows no graph: its bound is the id space.
        plan.check(MAX_INDEX + 1, MAX_INDEX + 1)
            .map_err(|e| fail(&e.to_string()))?;
        Ok(Schedule {
            decisions: self.decisions,
            fallback,
            plan,
        })
    }
}

/// Incrementally computes [`Schedule::prefix_key`] one decision at a
/// time, so a consumer hashing every prefix of an `n`-decision schedule
/// (a cache probing all checkpoint depths) pays O(n) total instead of
/// the O(n²) of calling `prefix_key` per depth.
///
/// ```
/// use csp_adversary::{PrefixHasher, Schedule};
/// let s = Schedule::default();
/// let mut h = PrefixHasher::new(&s);
/// assert_eq!(h.key(), s.prefix_key(0));
/// for (i, d) in s.decisions.iter().enumerate() {
///     h.absorb(d);
///     assert_eq!(h.key(), s.prefix_key(i + 1));
/// }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PrefixHasher {
    hash: u64,
    absorbed: u64,
}

impl PrefixHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// Starts a hasher seeded with `schedule`'s crash key (the decision
    /// stream itself is *not* consumed — absorb decisions explicitly).
    pub fn new(schedule: &Schedule) -> Self {
        PrefixHasher {
            hash: schedule.crash_key(),
            absorbed: 0,
        }
    }

    /// The state of a hasher over the empty input.
    fn seed() -> u64 {
        Self::OFFSET
    }

    /// Folds one 64-bit word into `h`. Word-at-a-time (multiply +
    /// xor-shift, murmur-style finalizer constants): the service probes
    /// hash every decision of every submitted schedule on its accept
    /// path, so per-word cost is what bounds probe latency.
    fn mix(h: u64, word: u64) -> u64 {
        let mut x = (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 32;
        x.wrapping_mul(0xff51_afd7_ed55_8ccd)
    }

    /// Extends the running prefix by one decision.
    pub fn absorb(&mut self, d: &Decision) {
        let mut h = self.hash;
        h = Self::mix(h, d.index);
        h = Self::mix(h, d.edge.index() as u64);
        h = Self::mix(h, u64::from(d.dir));
        h = Self::mix(h, d.weight);
        // A dropped send has no meaningful delay, but `Decision` keeps
        // an admissible one for mutation — canonicalise it away so two
        // schedules dropping the same send hash alike.
        h = Self::mix(h, if d.dropped { u64::MAX } else { d.delay });
        h = Self::mix(h, u64::from(d.dropped));
        self.hash = h;
        self.absorbed += 1;
    }

    /// The key of the prefix absorbed so far (mixes in the length, so a
    /// prefix and its extension never collide trivially).
    pub fn key(&self) -> u64 {
        Self::mix(self.hash, self.absorbed)
    }

    /// How many decisions have been absorbed.
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }
}

/// A malformed schedule file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line number of the offending line (0 when the input ended
    /// early).
    pub line: usize,
    /// What was wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule parse error at line {}: {}",
            self.line, self.msg
        )
    }
}

impl Error for ParseError {}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A toggle chain from bare numbers, for the crate's tests.
    pub(crate) fn chain(v: usize, times: &[u64]) -> (NodeId, Vec<SimTime>) {
        let times = times.iter().map(|&t| SimTime::new(t)).collect();
        (NodeId::new(v), times)
    }

    fn revision(e: usize, at: u64, w: u64) -> (EdgeId, SimTime, Weight) {
        (EdgeId::new(e), SimTime::new(at), Weight::new(w))
    }

    fn sample() -> Schedule {
        Schedule {
            decisions: vec![
                Decision {
                    index: 0,
                    edge: EdgeId::new(3),
                    dir: 1,
                    weight: 16,
                    delay: 16,
                    dropped: false,
                },
                Decision {
                    index: 1,
                    edge: EdgeId::new(7),
                    dir: 0,
                    weight: 4,
                    delay: 1,
                    dropped: false,
                },
            ],
            fallback: Fallback::Rush,
            ..Schedule::default()
        }
    }

    fn faulty_sample() -> Schedule {
        let mut s = sample();
        s.decisions[1].dropped = true;
        s.decisions[1].delay = s.decisions[1].weight;
        s.plan.churn.push(chain(4, &[12]));
        s
    }

    #[test]
    fn text_round_trip() {
        let s = sample();
        assert_eq!(Schedule::from_text(&s.to_text()).unwrap(), s);
    }

    #[test]
    fn prefix_keys_distinguish_length_content_and_crashes() {
        let s = sample();
        // Distinct depths and distinct contents get distinct keys.
        let keys: Vec<u64> = (0..=s.len()).map(|i| s.prefix_key(i)).collect();
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "depths {i} and {j} collided");
            }
        }
        let mut tweaked = s.clone();
        tweaked.decisions[1].delay = 2;
        assert_eq!(tweaked.prefix_key(1), s.prefix_key(1));
        assert_ne!(tweaked.prefix_key(2), s.prefix_key(2));
        // Fallback is excluded: it cannot affect the recorded prefix.
        let mut refit = s.clone();
        refit.fallback = Fallback::WorstCase;
        assert_eq!(refit.prefix_key(2), s.prefix_key(2));
        // Crashes poison every depth, including the empty prefix.
        let f = faulty_sample();
        assert_ne!(f.prefix_key(0), s.prefix_key(0));
        assert_ne!(f.crash_key(), s.crash_key());
    }

    #[test]
    fn crash_key_is_order_independent() {
        let mk = |order: &[(usize, u64)]| {
            let mut s = Schedule::default();
            s.plan.churn = order.iter().map(|&(n, at)| chain(n, &[at])).collect();
            s
        };
        let a = mk(&[(1, 5), (3, 9)]);
        let b = mk(&[(3, 9), (1, 5)]);
        assert_eq!(a.crash_key(), b.crash_key());
        assert_ne!(a.crash_key(), mk(&[(1, 5), (3, 10)]).crash_key());
    }

    #[test]
    fn dropped_decisions_hash_canonically() {
        // The delay slot of a dropped decision is bookkeeping for
        // mutation; two drops of the same send must share a key.
        let mut a = faulty_sample();
        let mut b = faulty_sample();
        a.decisions[1].delay = 1;
        b.decisions[1].delay = 4;
        assert_eq!(a.prefix_key(2), b.prefix_key(2));
        // But a drop never collides with a delivery at any delay.
        let delivered = sample();
        for delay in 1..=4 {
            let mut d = delivered.clone();
            d.decisions[1].delay = delay;
            assert_ne!(a.crash_key(), d.crash_key()); // crash sets differ
            let mut crashless = a.clone();
            crashless.plan.churn.clear();
            assert_ne!(crashless.prefix_key(2), d.prefix_key(2));
        }
    }

    #[test]
    fn incremental_hasher_matches_prefix_key() {
        let s = faulty_sample();
        let mut h = PrefixHasher::new(&s);
        assert_eq!(h.key(), s.prefix_key(0));
        for (i, d) in s.decisions.iter().enumerate() {
            h.absorb(d);
            assert_eq!(h.absorbed(), (i + 1) as u64);
            assert_eq!(h.key(), s.prefix_key(i + 1));
        }
    }

    #[test]
    fn common_prefix_len_respects_crash_sets() {
        let s = sample();
        let mut longer = s.clone();
        longer.decisions.push(Decision {
            index: 2,
            edge: EdgeId::new(1),
            dir: 0,
            weight: 9,
            delay: 3,
            dropped: false,
        });
        assert_eq!(s.common_prefix_len(&longer), 2);
        assert_eq!(longer.common_prefix_len(&s), 2);
        let mut diverged = longer.clone();
        diverged.decisions[0].delay = 3;
        assert_eq!(s.common_prefix_len(&diverged), 0);
        assert_eq!(s.common_prefix_len(&faulty_sample()), 0, "crash gate");
    }

    #[test]
    fn fault_save_load_round_trips() {
        let s = faulty_sample();
        let path = std::env::temp_dir().join("csp-adversary-fault-roundtrip.schedule");
        s.save(&path, &["fault round-trip".to_string()]).unwrap();
        let loaded = Schedule::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, s);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = format!("# counterexample\n\n{}\n# trailing\n", sample().to_text());
        assert_eq!(Schedule::from_text(&text).unwrap(), sample());
    }

    #[test]
    fn rushed_counts_sub_worst_case_decisions() {
        assert_eq!(sample().rushed(), 1);
    }

    #[test]
    fn save_load_round_trips_a_large_schedule() {
        // 10k+ decisions: exercises the buffered writer/reader paths on a
        // schedule the size the search actually records.
        let decisions: Vec<Decision> = (0..10_500u64)
            .map(|i| Decision {
                index: i,
                edge: EdgeId::new((i % 37) as usize),
                dir: (i % 2) as u8,
                weight: 1 + i % 50,
                // Dropped entries re-parse with delay = weight, so give
                // them exactly that for the equality round-trip.
                delay: if i % 19 == 0 {
                    1 + i % 50
                } else {
                    1 + (i * 7) % (1 + i % 50)
                },
                dropped: i % 19 == 0,
            })
            .collect();
        let mut s = Schedule {
            decisions,
            fallback: Fallback::Rush,
            ..Schedule::default()
        };
        s.plan.churn.push(chain(2, &[77]));
        let path = std::env::temp_dir().join("csp-adversary-large-roundtrip.schedule");
        s.save(&path, &["large round-trip".to_string()]).unwrap();
        let loaded = Schedule::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, s);
    }

    fn churny_sample() -> Schedule {
        let mut s = faulty_sample();
        s.plan.churn = vec![chain(4, &[12, 50, 90])];
        s.plan.drift.push(revision(7, 33, 9));
        s
    }

    #[test]
    fn every_schedule_is_written_under_the_v3_header() {
        for (name, s) in [
            ("delay-only", sample()),
            ("fault", faulty_sample()),
            ("churn", churny_sample()),
        ] {
            let text = s.to_text();
            assert!(text.starts_with("csp-adversary-schedule v3\n"), "{name}");
            assert_eq!(Schedule::from_text(&text).unwrap(), s, "{name}");
        }
        let text = churny_sample().to_text();
        for line in ["c 4 12", "c 4 90", "r 4 50", "w 7 33 9", "x 1 7 0 4"] {
            assert!(text.contains(&format!("\n{line}\n")), "{line}");
        }
        assert_eq!(faulty_sample().dropped_count(), 1);
        assert_eq!(
            faulty_sample().rushed(),
            0,
            "a dropped decision is not rushed"
        );
    }

    #[test]
    fn every_header_reads_one_grammar() {
        // One body with every line kind parses alike under each header.
        let body = "fallback rush\nc 4 12\nr 4 50\nc 4 90\nw 7 33 9\n\
                    d 0 3 1 16 16\nx 1 7 0 4\n";
        for v in ["v1", "v2", "v3"] {
            let text = format!("csp-adversary-schedule {v}\n{body}");
            assert_eq!(Schedule::from_text(&text).unwrap(), churny_sample(), "{v}");
        }
        // Texts an older header once refused: fault lines under `v1`,
        // churn lines under `v2`.
        let dropped = Decision {
            index: 0,
            edge: EdgeId::new(0),
            dir: 0,
            weight: 5,
            delay: 5,
            dropped: true,
        };
        for (text, decisions, churn, drift) in [
            (
                "csp-adversary-schedule v1\nfallback rush\nx 0 0 0 5",
                vec![dropped],
                vec![],
                vec![],
            ),
            (
                "csp-adversary-schedule v2\nfallback rush\nc 1 5\nr 1 9",
                vec![],
                vec![chain(1, &[5, 9])],
                vec![],
            ),
            (
                "csp-adversary-schedule v2\nfallback rush\nw 0 5 3",
                vec![],
                vec![],
                vec![revision(0, 5, 3)],
            ),
        ] {
            let want = Schedule {
                decisions,
                fallback: Fallback::Rush,
                plan: FaultPlan { churn, drift },
            };
            assert_eq!(Schedule::from_text(text).unwrap(), want, "{text:?}");
        }
    }

    #[test]
    fn churn_save_load_round_trips() {
        let s = churny_sample();
        let path = std::env::temp_dir().join("csp-adversary-churn-roundtrip.schedule");
        s.save(&path, &["churn round-trip".to_string()]).unwrap();
        let loaded = Schedule::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, s);
    }

    #[test]
    fn fault_lines_in_any_order_parse_to_chains_listed_by_vertex() {
        let text = "csp-adversary-schedule v3\nfallback rush\n\
                    c 4 90\nr 4 50\nc 1 7\nw 7 33 9\nc 4 12\nw 2 5 3\n";
        let s = Schedule::from_text(text).unwrap();
        assert_eq!(s.plan.churn, [chain(1, &[7]), chain(4, &[12, 50, 90])]);
        assert_eq!(s.plan.drift, [revision(7, 33, 9), revision(2, 5, 3)]);
        // Emission is canonical: crashes chain by chain, then rejoins.
        assert!(s
            .to_text()
            .contains("\nc 1 7\nc 4 12\nc 4 90\nr 4 50\nw 7 33 9\nw 2 5 3\n"));
    }

    #[test]
    fn churn_folds_into_crash_key_with_distinct_salts() {
        let base = faulty_sample();
        let churny = churny_sample();
        assert_ne!(base.crash_key(), churny.crash_key());
        // A rejoin at t must not hash like an extra crash at t.
        let mut rejoined = faulty_sample();
        rejoined.plan.churn = vec![chain(4, &[12, 50])];
        let mut recrashed = faulty_sample();
        recrashed.plan.churn = vec![chain(4, &[12]), chain(4, &[50])];
        assert_ne!(rejoined.crash_key(), recrashed.crash_key());
        // Rejoin order is canonicalized; drift sets are compared as
        // (edge, at, weight) sets.
        let mut a = churny_sample();
        let mut b = churny_sample();
        a.plan.drift.push(revision(2, 5, 3));
        b.plan.drift.insert(0, revision(2, 5, 3));
        a.plan.churn.push(chain(1, &[3, 8]));
        b.plan.churn.insert(0, chain(1, &[3, 8]));
        assert_eq!(a.crash_key(), b.crash_key());
        // Prefix keys inherit the gate: different churn, no shared
        // prefix at any depth.
        assert_ne!(churny.prefix_key(0), base.prefix_key(0));
        assert_eq!(base.common_prefix_len(&churny), 0);
    }

    #[test]
    fn parse_rejects_bad_churn() {
        for (text, expect) in [
            (
                // Rejoin with no preceding crash.
                "csp-adversary-schedule v3\nfallback rush\nr 1 9",
                "starting with a crash",
            ),
            (
                // Recrash without an intervening rejoin.
                "csp-adversary-schedule v3\nfallback rush\nc 1 5\nc 1 9",
                "alternate crash/rejoin",
            ),
            (
                // Rejoin at the crash instant: `FaultPlan::check`'s rule.
                "csp-adversary-schedule v3\nfallback rush\nc 1 5\nr 1 5",
                "churn chain for v1 must be strictly increasing",
            ),
            (
                "csp-adversary-schedule v3\nfallback rush\nw 0 5 0",
                "at least 1",
            ),
            (
                // Two revisions of one edge at one instant race.
                "csp-adversary-schedule v3\nfallback rush\nw 0 5 3\nw 0 5 4",
                "revised twice",
            ),
            (
                "csp-adversary-schedule v3\nfallback rush\nr 1 9 7",
                "trailing tokens on rejoin line",
            ),
        ] {
            let err = Schedule::from_text(text).unwrap_err();
            assert!(err.msg.contains(expect), "input {text:?} gave {err}");
        }
        // A recrash is legal when a rejoin intervenes.
        let ok = "csp-adversary-schedule v3\nfallback rush\nc 1 5\nr 1 9\nc 1 12";
        assert_eq!(
            Schedule::from_text(ok).unwrap().plan.churn,
            [chain(1, &[5, 9, 12])]
        );
    }

    #[test]
    fn parse_rejects_ids_beyond_the_id_space() {
        let over = MAX_INDEX as u64 + 1;
        for body in [
            format!("d 0 {over} 0 4 4"),
            format!("x 0 {over} 0 4"),
            format!("c {over} 3"),
            format!("c 1 3\nr {over} 9"),
            format!("w {over} 5 3"),
            "d 0 99999999999 0 4 4".to_string(),
        ] {
            let text = format!("csp-adversary-schedule v3\nfallback rush\n{body}");
            let err = Schedule::from_text(&text).unwrap_err();
            assert!(err.msg.contains("exceeds the id space"), "{body:?}: {err}");
            assert_eq!(err.line, text.lines().count(), "{body:?} names its line");
        }
        // The largest id is a legal one.
        let text = format!("csp-adversary-schedule v1\nfallback rush\nd 0 {MAX_INDEX} 0 4 4");
        let s = Schedule::from_text(&text).unwrap();
        assert_eq!(s.decisions[0].edge.index(), MAX_INDEX);
    }

    #[test]
    fn rewinding_to_any_offset_resumes_to_the_cold_parse() {
        // Fault lines before, between and after the decisions, a comment
        // and a blank line: every rewind target has state to restore.
        let text = "# head\ncsp-adversary-schedule v3\nfallback rush\nc 4 12\n\
                    d 0 3 1 16 16\nw 7 33 9\n\n# mid\nx 1 7 0 4\nr 4 50\nd 2 1 0 9 3\nc 4 90\n";
        let cold = Schedule::from_text(text).unwrap();
        let mut whole = TextParse::default();
        let feed = |parse: &mut TextParse, from: usize| {
            for line in text[from..].lines() {
                parse.line(line.as_ptr() as usize - text.as_ptr() as usize, line)?;
            }
            Ok::<(), ParseError>(())
        };
        feed(&mut whole, 0).unwrap();
        for offset in 0..=text.len() {
            let (mut parse, at) = whole.rewind(offset);
            assert!(at <= offset);
            assert!(at == 0 || text.as_bytes()[at - 1] == b'\n', "a line start");
            let reused = parse.decisions().len();
            feed(&mut parse, at).unwrap();
            assert_eq!(parse.into_schedule().unwrap(), cold, "offset {offset}");
            // Everything before the last decision line at or before
            // `offset` is reused, nothing after it.
            let before = text[..at]
                .lines()
                .filter(|l| l.starts_with(['d', 'x']))
                .count();
            assert_eq!(reused, before, "offset {offset}");
        }
        // An edit after the rewind point fails on the line it is on.
        let broken = text.replace("d 2 1 0 9 3", "d 3 1 0 9 3");
        let (mut parse, at) = whole.rewind(text.find("d 2").unwrap() + 2);
        let err = broken[at..]
            .lines()
            .try_for_each(|l| parse.line(0, l))
            .unwrap_err();
        assert_eq!(err, Schedule::from_text(&broken).unwrap_err());
    }

    #[test]
    fn parse_rejects_bad_input() {
        for (text, expect) in [
            ("", "empty"),
            ("wrong header", "header"),
            (
                // A second crash without a rejoin, under any header.
                "csp-adversary-schedule v2\nfallback rush\nc 1 0\nc 1 9",
                "alternate crash/rejoin",
            ),
            (
                "csp-adversary-schedule v2\nfallback rush\nq 0 0 0 5",
                "`d`, `x`, `c`, `r` or `w`",
            ),
            ("csp-adversary-schedule v1\nfallback maybe", "fallback"),
            (
                "csp-adversary-schedule v1\nfallback rush\nd 1 0 0 5 5",
                "contiguous",
            ),
            (
                "csp-adversary-schedule v1\nfallback rush\nd 0 0 0 5 9",
                "[1, weight]",
            ),
            (
                "csp-adversary-schedule v1\nfallback rush\nd 0 0 2 5 5",
                "dir",
            ),
            (
                "csp-adversary-schedule v1\nfallback rush\nd 0 0 0 5",
                "missing delay",
            ),
        ] {
            let err = Schedule::from_text(text).unwrap_err();
            assert!(
                err.msg.contains(expect) || err.to_string().contains(expect),
                "input {text:?} gave {err}"
            );
        }
    }
}
