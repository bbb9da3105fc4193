//! Resumed ingest ≡ cold parse, differentially.
//!
//! `csp-serve` reads a resubmitted schedule against the text its cache
//! retains for the scenario key: shared bytes are compared, not parsed,
//! and hashing continues from retained hasher states. None of that may
//! be observable. Every text here is pushed through
//!
//! * a caching service by the **line** entry (`handle_line` — resumed
//!   ingest),
//! * a caching service by the **tree** entry (`handle(&Json)` — the
//!   string decoded in full, nothing retained), and
//! * a `cache: false` service (cold runs only),
//!
//! and the three must agree: same error text (so the same `ParseError`
//! line and message), same cache outcome and resume depth between the
//! two caching services, same `report` / `states_digest` as the cold
//! one. One level down, `StackCache::ingest` must return the `Schedule`
//! that `Schedule::from_text` gives for the decoded string, and
//! `probe_keys` the keys `Schedule::prefix_key` defines.

use csp_adversary::{record, Fallback, Schedule, ScheduleOracle};
use csp_algo::spt::recur::SptRecur;
use csp_graph::generators::{self, WeightDist};
use csp_graph::{EdgeId, NodeId, Weight, WeightedGraph};
use csp_serve::cache::IngestError;
use csp_serve::json::Json;
use csp_serve::service::{Service, ServiceConfig};
use csp_serve::{CacheCaps, StackCache};
use csp_sim::{CrashOracle, DelayModel, DropOracle, SimTime, Simulator};
use proptest::prelude::*;

const N: usize = 10;
const CHECKPOINT_EVERY: u64 = 8;

fn graph() -> WeightedGraph {
    generators::connected_gnp(N, 0.35, WeightDist::Uniform(2, 9), 7)
}

fn make(v: NodeId, _: &WeightedGraph) -> SptRecur {
    SptRecur::new(v, NodeId::new(0), 1 << 40)
}

/// The base text: a recorded drop + crash schedule plus a drift far past
/// quiescence, so the base carries a `w` line beside its `c` and `x`
/// lines.
fn base_text() -> String {
    let oracle = CrashOracle::new(
        DropOracle::new(DelayModel::Uniform, 0xFEED_BEEF, 0.2, 3),
        vec![(NodeId::new(7), SimTime::new(25))],
    );
    let (_, mut schedule) = record(&graph(), make, oracle, Fallback::WorstCase);
    assert!(schedule.has_faults() && schedule.len() > 40);
    let far = (EdgeId::new(0), SimTime::new(1_000_000), Weight::new(5));
    schedule.plan.drift.push(far);
    schedule.to_text()
}

/// The contents of a JSON string holding `text`, escaped the way a
/// client's serializer would (`\n`, `\r`, `\t`, `\"`, `\\`).
fn escape(text: &str) -> String {
    let dumped = Json::str(text).dump();
    dumped[1..dumped.len() - 1].to_string()
}

fn decode(raw: &str) -> Option<String> {
    match Json::parse(&format!("\"{raw}\"")) {
        Ok(Json::Str(s)) => Some(s),
        _ => None,
    }
}

/// A `submit` line whose `run.schedule` string has the contents `raw`.
/// The id follows the payload, as in the benchmark's lines.
fn line(id: &str, raw: &str) -> String {
    format!(
        "{{\"type\":\"submit\",\"graph\":{{\"family\":\"gnp\",\"n\":{N},\"p\":0.35,\
         \"w_min\":2,\"w_max\":9,\"seed\":7}},\"stack\":{{\"protocol\":\"spt_recur\",\
         \"root\":0}},\"run\":{{\"mode\":\"schedule\",\"schedule\":\"{raw}\"}},\"id\":\"{id}\"}}\n"
    )
}

fn service(cache: bool) -> Service {
    Service::new(ServiceConfig {
        threads: 2,
        checkpoint_every: CHECKPOINT_EVERY,
        cache,
        caps: CacheCaps::default(),
        trace_cap: 1 << 14,
    })
}

/// The three services of the module docs.
struct Trio {
    by_line: Service,
    by_tree: Service,
    cold: Service,
    submitted: usize,
}

fn field<'a>(r: &'a Json, key: &str) -> &'a str {
    r.get(key).and_then(Json::as_str).unwrap_or("")
}

fn num(r: &Json, key: &str) -> u64 {
    r.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no {key} in {}", r.dump()))
}

impl Trio {
    fn new() -> Trio {
        Trio {
            by_line: service(true),
            by_tree: service(true),
            cold: service(false),
            submitted: 0,
        }
    }

    /// Submits the string `raw` to all three, checks that they agree,
    /// and returns the line entry's response.
    fn submit(&mut self, raw: &str) -> Json {
        self.submitted += 1;
        let line = line(&format!("s{}", self.submitted), raw);
        let mut a = self
            .by_line
            .handle_line(line.as_bytes())
            .expect("no shutdown");
        let tree = Json::parse(line.trim());
        let Ok(tree) = tree else {
            // Not JSON at all: the line entry must say so too.
            assert_eq!(field(&a[0], "type"), "error", "{raw:?}");
            assert!(field(&a[0], "error").starts_with("bad JSON"), "{raw:?}");
            return a.remove(0);
        };
        let b = self.by_tree.handle(&tree);
        let c = self.cold.handle(&tree);
        assert_eq!((a.len(), b.len(), c.len()), (1, 1, 1));
        let (a, b, c) = (a.remove(0), &b[0], &c[0]);
        assert_eq!(field(&a, "type"), field(b, "type"), "{raw:?}");
        assert_eq!(field(&a, "type"), field(c, "type"), "{raw:?}");
        assert_eq!(field(&a, "id"), field(b, "id"));
        if field(&a, "type") == "error" {
            assert_eq!(field(&a, "error"), field(b, "error"), "{raw:?}");
            assert_eq!(field(&a, "error"), field(c, "error"), "{raw:?}");
            return a;
        }
        assert_eq!(field(&a, "cache"), field(b, "cache"), "{raw:?}");
        assert_eq!(num(&a, "depth"), num(b, "depth"), "{raw:?}");
        for key in ["report", "bound"] {
            assert_eq!(a.get(key), b.get(key), "{key} of {raw:?}");
            assert_eq!(a.get(key), c.get(key), "{key} of {raw:?}");
        }
        assert_eq!(field(&a, "states_digest"), field(c, "states_digest"));
        assert_eq!(field(&a, "states_digest"), field(b, "states_digest"));
        // A FULL hit replays nothing, so it has no trace to digest.
        if field(&a, "cache") != "full" {
            assert_eq!(field(&a, "trace_digest"), field(c, "trace_digest"));
        }
        // Every decision was either copied or parsed, and the tree entry
        // copies none.
        let len = Schedule::from_text(&decode(raw).expect("it parsed"))
            .unwrap()
            .len() as u64;
        assert_eq!(num(&a, "ingest_reused") + num(&a, "ingest_parsed"), len);
        assert_eq!((num(b, "ingest_reused"), num(b, "ingest_parsed")), (0, len));
        a
    }
}

// ------------------------------------------------------------- the edits

/// Decision lines of `lines` (by index into it).
fn decision_lines(lines: &[String]) -> Vec<usize> {
    (0..lines.len())
        .filter(|&i| lines[i].starts_with("d ") || lines[i].starts_with("x "))
        .collect()
}

/// Rewrites line `i`, a decision line, field by field.
fn rewrite(line: &str, f: impl Fn(&mut Vec<String>)) -> String {
    let mut parts: Vec<String> = line.split(' ').map(str::to_string).collect();
    f(&mut parts);
    parts.join(" ")
}

/// One edit of a schedule text, picked by `kind`, placed by `pos`.
/// Returns what to submit: the lines and the line terminator.
fn edit(lines: &mut Vec<String>, kind: u8, pos: u64, val: u64) -> &'static str {
    let decisions = decision_lines(lines);
    let at = decisions[(pos % decisions.len() as u64) as usize];
    match kind % 12 {
        // Another admissible delay (or the same: a no-op edit).
        0 => {
            lines[at] = rewrite(&lines[at], |p| {
                if p[0] == "d" {
                    let w: u64 = p[4].parse().unwrap();
                    p[5] = (1 + val % w).to_string();
                }
            })
        }
        // A delay outside [1, weight]: the first difference falls in
        // the middle of a number when the old delay is a prefix of it.
        1 => {
            lines[at] = rewrite(&lines[at], |p| {
                if p[0] == "d" {
                    p[5] = format!("{}{}", p[5], val % 10);
                }
            })
        }
        // d ↔ x.
        2 => {
            lines[at] = rewrite(&lines[at], |p| {
                if p[0] == "d" {
                    p[0] = "x".to_string();
                    p.pop();
                } else {
                    p[0] = "d".to_string();
                    p.push(p[4].clone());
                }
            })
        }
        // A decision line twice / one missing: indices no longer
        // contiguous, reported at the line that breaks them.
        3 => lines.insert(at, lines[at].clone()),
        4 => {
            lines.remove(at);
        }
        5 => {
            let i = lines
                .iter()
                .position(|l| l.starts_with("fallback"))
                .unwrap();
            lines[i] = ["fallback rush", "fallback worst-case", "fallback maybe"]
                [(val % 3) as usize]
                .to_string();
        }
        // Fault lines after the last decision: every decision is shared,
        // the crash key is not. Some are legal, some break the churn
        // discipline, some name a vertex or edge the graph lacks.
        6 => lines.push(format!("c {} {}", val % 12, 30 + pos % 7)),
        7 => lines.push(format!(
            "r {} {}",
            [7, 7, 3, 11][(val % 4) as usize],
            60 + pos % 5
        )),
        8 => lines.push(format!("w {} {} {}", val % 40, 3 + pos % 50, 1 + val % 6)),
        // A comment with an escaped quote and a two-byte character.
        9 => lines.insert(at, format!("# {} \"quoted\" é {}", val, pos)),
        // Cut the text short, at a line start or inside a line.
        10 => {
            lines.truncate(at + 1);
            if val.is_multiple_of(2) {
                let l = &mut lines[at];
                l.truncate(l.len() - (1 + (val / 2) as usize % (l.len() - 1)));
            }
        }
        // CRLF line endings.
        _ => return "\r\n",
    }
    "\n"
}

fn join(lines: &[String], eol: &str) -> String {
    lines.iter().flat_map(|l| [l.as_str(), eol]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A chain of random edits, each submitted on top of what the
    /// services have seen before: whatever the line entry shares with
    /// its retained text, it answers like the other two.
    #[test]
    fn resumed_ingest_answers_like_a_cold_parse(
        edits in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        from_base in any::<u64>(),
    ) {
        let base = base_text();
        let mut trio = Trio::new();
        let response = trio.submit(&escape(&base));
        prop_assert_eq!(field(&response, "cache"), "miss");
        let mut lines: Vec<String> = base.lines().map(str::to_string).collect();
        for (i, seed) in [edits.0, edits.1, edits.2, edits.3].into_iter().enumerate() {
            // Some edits start over from the base, the rest accumulate.
            if from_base >> i & 1 == 1 {
                lines = base.lines().map(str::to_string).collect();
            }
            let before = lines.clone();
            let eol = edit(&mut lines, (seed >> 56) as u8, seed >> 28 & 0xfff_ffff, seed & 0xfff_ffff);
            let response = trio.submit(&escape(&join(&lines, eol)));
            // An edit that broke the text is not built upon.
            if field(&response, "type") == "error" {
                lines = before;
            }
        }
    }

    /// `ingest` returns what `from_text` returns, and `probe_keys` the
    /// keys `prefix_key` defines — whatever is retained.
    #[test]
    fn ingest_and_probe_keys_match_their_definitions(
        edits in (any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let base = base_text();
        let schedule = Schedule::from_text(&base).unwrap();
        let mut cache: StackCache<SptRecur> = StackCache::new(CacheCaps::default());
        let mut cps = Vec::new();
        Simulator::new(&graph())
            .run_with_checkpoints(&mut ScheduleOracle::new(&schedule), make, CHECKPOINT_EVERY, &mut cps)
            .unwrap();
        cache.insert_checkpoints("k", &schedule, &cps);
        let marks: Vec<u64> = cps.iter().map(|cp| cp.messages()).collect();
        prop_assert!(marks.len() > 4);

        let mut lines: Vec<String> = base.lines().map(str::to_string).collect();
        let mut texts = vec![base.clone()];
        for seed in [edits.0, edits.1, edits.2] {
            let eol = edit(&mut lines, (seed >> 56) as u8, seed >> 28 & 0xfff_ffff, seed & 0xfff_ffff);
            texts.push(join(&lines, eol));
        }
        for text in &texts {
            let cold = Schedule::from_text(text);
            let ingested = cache.ingest("k", &escape(text));
            match (ingested, cold) {
                (Ok(ingested), Ok(cold)) => {
                    prop_assert_eq!(&ingested.schedule, &cold);
                    prop_assert_eq!(ingested.reused + ingested.parsed, cold.len());
                    let (exact, keys) = cache.probe_keys("k", &cold, ingested.reused);
                    prop_assert_eq!(exact, StackCache::<SptRecur>::exact_schedule_hash(&cold));
                    let want: Vec<(u64, u64)> = marks
                        .iter()
                        .filter(|&&m| m <= cold.len() as u64)
                        .map(|&m| (m, cold.prefix_key(m as usize)))
                        .collect();
                    prop_assert_eq!(keys, want);
                }
                (Err(IngestError::Parse(e)), Err(cold)) => prop_assert_eq!(e, cold),
                // `\"` in a comment: the caller decodes in full.
                (Err(IngestError::Escaped), _) => prop_assert!(text.contains('"')),
                (a, b) => prop_assert!(false, "ingest {a:?} but from_text {b:?}"),
            }
        }
    }
}

// ------------------------------------------------- hand-written edge cases

/// Submits the base, which is then what is retained, and each of
/// `variants` on top, returning the line entry's responses to those.
fn after_base(variants: &[String]) -> Vec<Json> {
    let mut trio = Trio::new();
    assert_eq!(field(&trio.submit(&escape(&base_text())), "cache"), "miss");
    variants.iter().map(|raw| trio.submit(raw)).collect()
}

fn base_lines() -> Vec<String> {
    base_text().lines().map(str::to_string).collect()
}

/// The last delivered decision of `lines` with room for another delay,
/// given that other delay.
fn retimed_tail(lines: &[String]) -> Vec<String> {
    let mut lines = lines.to_vec();
    let at = *decision_lines(&lines)
        .iter()
        .rev()
        .find(|&&i| lines[i].starts_with("d "))
        .unwrap();
    lines[at] = retimed(&lines[at]);
    lines
}

/// The delivered decision `line` with the next admissible delay.
fn retimed(line: &str) -> String {
    rewrite(line, |p| {
        let (w, d): (u64, u64) = (p[4].parse().unwrap(), p[5].parse().unwrap());
        p[5] = (1 + d % w).to_string();
    })
}

#[test]
fn a_tail_edit_resumes_parse_hash_and_run() {
    let lines = base_lines();
    let decisions = decision_lines(&lines).len() as u64;
    let variant = escape(&join(&retimed_tail(&lines), "\n"));
    let rs = after_base(&[variant.clone(), variant]);
    assert_eq!(field(&rs[0], "cache"), "incremental");
    assert!(num(&rs[0], "depth") > 0);
    // Everything before the edited line was copied.
    assert!(
        num(&rs[0], "ingest_reused") >= decisions - 2,
        "{}",
        rs[0].dump()
    );
    assert!(num(&rs[0], "ingest_parsed") <= 2);
    // The FULL-hit case: an answered variant comes back from the result
    // store with the stored report (`Trio::submit` compared it with the
    // cold service's), still reading only the line it changed.
    assert_eq!(field(&rs[1], "cache"), "full");
    assert_eq!(rs[1].get("report"), rs[0].get("report"));
    assert!(num(&rs[1], "ingest_reused") >= decisions - 2);
}

#[test]
fn inserted_and_deleted_lines_fail_where_a_cold_parse_fails() {
    let lines = base_lines();
    let decisions = decision_lines(&lines);
    let at = decisions[decisions.len() * 3 / 4];
    let (mut doubled, mut missing) = (lines.clone(), lines.clone());
    doubled.insert(at, lines[at].clone());
    missing.remove(at);
    let rs = after_base(&[escape(&join(&doubled, "\n")), escape(&join(&missing, "\n"))]);
    // 1-based: the copy sits on line at+2, and after a removal the line
    // that followed the removed one sits on line at+1.
    for (r, line) in rs.iter().zip([at + 2, at + 1]) {
        assert_eq!(
            field(r, "error"),
            format!(
                "bad schedule: schedule parse error at line {line}: \
                 decision indices must be contiguous from 0"
            )
        );
    }
}

#[test]
fn fault_lines_after_the_last_decision_share_no_hasher_state() {
    let mut crashed = base_lines();
    crashed.push("c 3 40".to_string());
    let mut recrashed = crashed.clone();
    *recrashed.last_mut().unwrap() = "c 3 41".to_string();
    let mut rejoined = base_lines();
    rejoined.push("r 7 60".to_string());
    let mut drifted = base_lines();
    drifted.push("w 1 30 4".to_string());
    let decisions = decision_lines(&base_lines()).len() as u64;
    let rs = after_base(
        &[crashed, recrashed, rejoined, drifted].map(|lines| escape(&join(&lines, "\n"))),
    );
    for r in &rs {
        // Every decision is the retained text's, and none of its hasher
        // states may be: a different crash key seeds every prefix key,
        // so nothing matches (`Trio::submit` checked that the tree
        // entry, hashing from scratch, says the same).
        assert_eq!(field(r, "cache"), "miss", "{}", r.dump());
        assert!(num(r, "ingest_reused") >= decisions - 1, "{}", r.dump());
    }
}

#[test]
fn line_endings_comments_and_partial_texts() {
    let lines = base_lines();
    let text = join(&lines, "\n");
    assert_eq!(text, base_text());
    let mut commented = lines.clone();
    commented.insert(lines.len() - 3, "# say \"é\"".to_string());
    let raw = escape(&text);
    let last_line = raw[..raw.len() - 2].rfind("\\n").unwrap() + 2;
    let rs = after_base(&[
        // CRLF on the last line only: the first difference is the byte
        // after a backslash.
        format!("{}\\r\\n", &raw[..raw.len() - 2]),
        // `\"` is an escape the line walk does not read: decoded in full.
        escape(&join(&commented, "\n")),
        // A strict prefix, ending at a line start and inside a line (the
        // last decision loses its delay), and a strict extension of
        // what is retained.
        raw[..last_line].to_string(),
        raw[..raw.len() - 4].to_string(),
        format!("{raw}# trailing\\n\\n"),
        // Tabs for spaces from the middle on.
        format!(
            "{}{}",
            &raw[..raw.len() / 2],
            raw[raw.len() / 2..].replace(' ', "\\t")
        ),
        // The line break written as a `\u` escape.
        raw.replace("\\n", "\\u000a"),
        // CRLF throughout: differs from the retained text at the end of
        // the header line, so it replaces it — and is shared in turn.
        escape(&join(&lines, "\r\n")),
        escape(&join(&retimed_tail(&lines), "\r\n")),
    ]);
    let decisions = decision_lines(&lines).len() as u64;
    let shared = |r: &Json| (num(r, "ingest_reused"), num(r, "ingest_parsed"));
    assert_eq!(shared(&rs[0]), (decisions - 1, 1));
    // The escape fallback shares nothing and retains nothing: the plain
    // text after it still finds the base retained.
    assert_eq!(shared(&rs[1]), (0, decisions));
    assert_eq!(shared(&rs[2]), (decisions - 1, 0));
    assert!(
        field(&rs[3], "error").contains("missing"),
        "{}",
        rs[3].dump()
    );
    assert_eq!(shared(&rs[4]), (decisions - 1, 1));
    assert!(num(&rs[5], "ingest_reused") > decisions / 3);
    assert_eq!(shared(&rs[6]), (0, decisions));
    for same in [&rs[0], &rs[4], &rs[5], &rs[6]] {
        assert_eq!(field(same, "cache"), "full", "{}", same.dump());
    }
    assert_eq!(shared(&rs[7]), (0, decisions));
    assert_eq!(field(&rs[7], "cache"), "full");
    assert!(num(&rs[8], "ingest_reused") >= decisions - 2);
    assert_eq!(field(&rs[8], "cache"), "incremental");
}

#[test]
fn a_text_sharing_less_than_half_replaces_the_retained_one() {
    let lines = base_lines();
    let decisions = decision_lines(&lines);
    // Retime a decision a quarter of the way in: under half is shared.
    let mut early = lines.clone();
    let at = *decisions[decisions.len() / 4..]
        .iter()
        .find(|&&i| lines[i].starts_with("d "))
        .unwrap();
    early[at] = retimed(&lines[at]);
    let tail_of_early = retimed_tail(&early);
    let rs =
        after_base(&[early.clone(), tail_of_early, lines].map(|lines| escape(&join(&lines, "\n"))));
    let n = decisions.len() as u64;
    assert!(num(&rs[0], "ingest_reused") < n / 2);
    // The early edit is what is retained now: its own tail variant
    // copies nearly everything, the base no more than the base shares
    // with it.
    assert!(num(&rs[1], "ingest_reused") >= n - 2, "{}", rs[1].dump());
    assert_eq!(num(&rs[2], "ingest_reused"), num(&rs[0], "ingest_reused"));
    assert_eq!(field(&rs[2], "cache"), "full");
}
