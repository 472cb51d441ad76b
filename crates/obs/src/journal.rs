//! The flight recorder: a bounded, deterministic decision journal.
//!
//! Metrics say *how much* the pipeline did and spans say *how long* it
//! took; the journal says **why** — per thread and per hole, the typed
//! reconstruction/recovery decisions that produced the report: which
//! candidate complete segments were considered for a hole, at which
//! abstraction tier each one was rejected, what the winner scored and by
//! what margin, when the random-walk fallback was taken, and where the
//! feasibility linter broke the timeline.
//!
//! Three properties make the journal usable as a debugging contract:
//!
//! * **Deterministic.** Events carry no wall-clock data. Each record is
//!   keyed by `(thread, segment, seq)` where `seq` is the emission order
//!   within that key's (single-threaded) producer, and
//!   [`Journal::snapshot`] sorts by key — so the snapshot is
//!   byte-identical at any `parallelism` setting as long as nothing was
//!   dropped.
//! * **Bounded.** The journal is a ring of fixed capacity. A push beyond
//!   capacity is *dropped* (drop-newest) and counted exactly:
//!   `dropped == max(0, total_pushes - capacity)` under any
//!   interleaving. A snapshot with `dropped > 0` is truncated in a
//!   scheduling-dependent way — the counter is the signal to re-run with
//!   a larger capacity.
//! * **Branch-only when off.** A disabled handle's recorder holds no
//!   journal reference; every emit is one branch on an `Option`.
//!
//! The JSONL export ([`JournalSnapshot::to_jsonl`]) writes one record
//! per line with a fixed field order, so two runs can be diffed at the
//! decision level (`jportal-inspect diff`).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::json::{self, Value};

/// Sort key of a journal record.
///
/// `segment` is producer-scoped: the piece index for projection events,
/// the compacted incomplete-segment index for recovery events, and
/// [`LINT_SEGMENT`] for lint events (so they sort after the per-segment
/// story of their thread). `seq` is the emission order within the key's
/// single-threaded producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JournalKey {
    /// Thread the decision concerned.
    pub thread: u32,
    /// Producer-scoped segment index.
    pub segment: u32,
    /// Emission order within `(thread, segment)`.
    pub seq: u32,
}

/// `segment` value used for whole-timeline events (lint breaks): sorts
/// after every real segment index.
pub const LINT_SEGMENT: u32 = u32::MAX;

/// How a considered candidate left the ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CandidateOutcome {
    /// Rejected by the tier-1 (call-structure) comparison.
    PrunedTier1,
    /// Rejected by the tier-2 (control-structure) comparison.
    PrunedTier2,
    /// Survived to the tier-3 (concrete) comparison and was scored.
    Scored,
}

impl CandidateOutcome {
    fn as_str(self) -> &'static str {
        match self {
            CandidateOutcome::PrunedTier1 => "pruned_tier1",
            CandidateOutcome::PrunedTier2 => "pruned_tier2",
            CandidateOutcome::Scored => "scored",
        }
    }
}

/// One typed reconstruction/recovery decision.
///
/// Every field is simulation-derived (timestamps are simulated cycles,
/// scores are symbol counts): nothing here depends on wall time or
/// worker scheduling.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum JournalEvent {
    /// One decoded segment was projected onto the ICFG (§4).
    SegmentMatched {
        /// Decoded events in the segment.
        events: u32,
        /// Events that received an ICFG node.
        matched: u32,
        /// Restart seams (subsequence boundaries) hit.
        restarts: u32,
        /// Peak NFA frontier width over the segment's matched runs.
        frontier_width: u32,
        /// Candidate start states examined (ambiguity count).
        candidates_tried: u32,
        /// Candidates rejected by the abstract (tabled-DFA) filter.
        candidates_pruned: u32,
        /// `true` when the abstraction-guided start filter ran (the DFA
        /// path); `false` for the plain reference path.
        dfa_path: bool,
    },
    /// Recovery opened a hole after an incomplete segment (§5).
    HoleOpened {
        /// Hole index within the thread (1-based, matching
        /// `ThreadReport::holes` order).
        hole: u32,
        /// Loss window start (simulated cycles).
        first_ts: u64,
        /// Loss window end (simulated cycles).
        last_ts: u64,
        /// Anchor length `x` in use.
        anchor_len: u32,
        /// The anchor's opcode spelling (e.g. `"iload·ifeq·iadd"`).
        anchor: String,
        /// Timestamp-derived event budget for the fill.
        budget: u64,
    },
    /// One candidate CS position was considered for the current hole.
    CandidateConsidered {
        /// Hole index (as in [`JournalEvent::HoleOpened`]).
        hole: u32,
        /// Consideration order (0-based; the anchor index's deterministic
        /// candidate order).
        rank: u32,
        /// Segment the candidate lives in.
        cs_segment: u32,
        /// Anchor-end offset within that segment.
        offset: u32,
        /// Tier outcome.
        outcome: CandidateOutcome,
        /// Longest-common-suffix score: the tier-3 (concrete) LCS for
        /// scored candidates, the failing tier's capped measurement for
        /// pruned ones.
        score: u32,
    },
    /// The per-hole candidate-event cap was hit; `count` further
    /// candidates were considered but not journaled individually (their
    /// statistics still land in `RecoveryStats`). Deterministic: always
    /// the tail of the per-hole consideration order.
    CandidatesElided {
        /// Hole index.
        hole: u32,
        /// Candidates considered beyond the cap.
        count: u32,
    },
    /// A candidate CS won the ranking and its suffix filled the hole.
    CandidateChosen {
        /// Hole index.
        hole: u32,
        /// Winning candidate's segment.
        cs_segment: u32,
        /// Winning candidate's anchor-end offset.
        offset: u32,
        /// Winner's concrete LCS score.
        score: u32,
        /// Runner-up's score (0 when the winner was the only survivor).
        runner_up: u32,
        /// `score - runner_up`.
        margin: u32,
        /// Entries spliced into the hole.
        fill_len: u32,
        /// Timestamp-derived budget the splice scan ran under.
        budget: u64,
        /// `true` when the budget was smaller than the candidate's
        /// available suffix — the confirm scan could not see the whole
        /// suffix, so the splice may have been budget-truncated.
        truncated: bool,
        /// Fill confidence in parts-per-million (see
        /// `jportal-core::recover`'s confidence formula).
        confidence_ppm: u32,
    },
    /// No candidate confirmed; the bounded ICFG walk filled the hole.
    FallbackWalk {
        /// Hole index.
        hole: u32,
        /// Entries the walk produced.
        fill_len: u32,
        /// Fill confidence in parts-per-million.
        confidence_ppm: u32,
    },
    /// Neither a CS nor the walk could fill the hole.
    HoleUnfilled {
        /// Hole index.
        hole: u32,
    },
    /// The feasibility linter reported a break in this thread's
    /// reconstructed timeline.
    LintBreak {
        /// Diagnostic kind (`"missing-edge"`, `"op-mismatch"`, ...).
        kind: String,
        /// Step index within the linted timeline.
        index: u64,
        /// Detail string of the diagnostic.
        detail: String,
    },
}

/// A field value in the journal's flat wire representation.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldVal {
    /// Unsigned integer.
    Int(u64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl std::fmt::Display for FieldVal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldVal::Int(v) => write!(f, "{v}"),
            FieldVal::Bool(v) => write!(f, "{v}"),
            FieldVal::Str(s) => write!(f, "{s}"),
        }
    }
}

impl JournalEvent {
    /// Stable kind tag (the JSONL `"kind"` field).
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::SegmentMatched { .. } => "segment_matched",
            JournalEvent::HoleOpened { .. } => "hole_opened",
            JournalEvent::CandidateConsidered { .. } => "candidate_considered",
            JournalEvent::CandidatesElided { .. } => "candidates_elided",
            JournalEvent::CandidateChosen { .. } => "candidate_chosen",
            JournalEvent::FallbackWalk { .. } => "fallback_walk",
            JournalEvent::HoleUnfilled { .. } => "hole_unfilled",
            JournalEvent::LintBreak { .. } => "lint_break",
        }
    }

    /// The event's payload as ordered `(name, value)` pairs — the order
    /// is the wire order and part of the diffable format.
    pub fn fields(&self) -> Vec<(&'static str, FieldVal)> {
        use FieldVal::{Bool, Int, Str};
        match self {
            JournalEvent::SegmentMatched {
                events,
                matched,
                restarts,
                frontier_width,
                candidates_tried,
                candidates_pruned,
                dfa_path,
            } => vec![
                ("events", Int(*events as u64)),
                ("matched", Int(*matched as u64)),
                ("restarts", Int(*restarts as u64)),
                ("frontier_width", Int(*frontier_width as u64)),
                ("candidates_tried", Int(*candidates_tried as u64)),
                ("candidates_pruned", Int(*candidates_pruned as u64)),
                ("dfa_path", Bool(*dfa_path)),
            ],
            JournalEvent::HoleOpened {
                hole,
                first_ts,
                last_ts,
                anchor_len,
                anchor,
                budget,
            } => vec![
                ("hole", Int(*hole as u64)),
                ("first_ts", Int(*first_ts)),
                ("last_ts", Int(*last_ts)),
                ("anchor_len", Int(*anchor_len as u64)),
                ("anchor", Str(anchor.clone())),
                ("budget", Int(*budget)),
            ],
            JournalEvent::CandidateConsidered {
                hole,
                rank,
                cs_segment,
                offset,
                outcome,
                score,
            } => vec![
                ("hole", Int(*hole as u64)),
                ("rank", Int(*rank as u64)),
                ("cs_segment", Int(*cs_segment as u64)),
                ("offset", Int(*offset as u64)),
                ("outcome", Str(outcome.as_str().to_string())),
                ("score", Int(*score as u64)),
            ],
            JournalEvent::CandidatesElided { hole, count } => {
                vec![("hole", Int(*hole as u64)), ("count", Int(*count as u64))]
            }
            JournalEvent::CandidateChosen {
                hole,
                cs_segment,
                offset,
                score,
                runner_up,
                margin,
                fill_len,
                budget,
                truncated,
                confidence_ppm,
            } => vec![
                ("hole", Int(*hole as u64)),
                ("cs_segment", Int(*cs_segment as u64)),
                ("offset", Int(*offset as u64)),
                ("score", Int(*score as u64)),
                ("runner_up", Int(*runner_up as u64)),
                ("margin", Int(*margin as u64)),
                ("fill_len", Int(*fill_len as u64)),
                ("budget", Int(*budget)),
                ("truncated", Bool(*truncated)),
                ("confidence_ppm", Int(*confidence_ppm as u64)),
            ],
            JournalEvent::FallbackWalk {
                hole,
                fill_len,
                confidence_ppm,
            } => vec![
                ("hole", Int(*hole as u64)),
                ("fill_len", Int(*fill_len as u64)),
                ("confidence_ppm", Int(*confidence_ppm as u64)),
            ],
            JournalEvent::HoleUnfilled { hole } => vec![("hole", Int(*hole as u64))],
            JournalEvent::LintBreak {
                kind,
                index,
                detail,
            } => vec![
                ("break_kind", Str(kind.clone())),
                ("index", Int(*index)),
                ("detail", Str(detail.clone())),
            ],
        }
    }
}

/// One journaled decision: key plus typed event.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Sort key.
    pub key: JournalKey,
    /// The decision.
    pub event: JournalEvent,
}

impl JournalRecord {
    /// One JSON object (no trailing newline) with fixed field order:
    /// key fields, `kind`, then the event payload.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str(&format!(
            "{{\"thread\":{},\"segment\":{},\"seq\":{},\"kind\":",
            self.key.thread, self.key.segment, self.key.seq
        ));
        json::write_escaped(&mut out, self.event.kind());
        for (name, val) in self.event.fields() {
            out.push(',');
            json::write_escaped(&mut out, name);
            out.push(':');
            match val {
                FieldVal::Int(v) => out.push_str(&v.to_string()),
                FieldVal::Bool(v) => out.push_str(if v { "true" } else { "false" }),
                FieldVal::Str(s) => json::write_escaped(&mut out, &s),
            }
        }
        out.push('}');
        out
    }
}

/// Shard count for the record buffers (threads stripe over shards; one
/// short lock per record).
const JOURNAL_SHARDS: usize = 16;

/// Default ring capacity: generous for the seed workloads (a lossy run
/// journals a few thousand records), small enough that a runaway
/// candidate storm cannot take the process down.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1 << 16;

/// The bounded decision journal.
///
/// Thread-safe: producers push concurrently (striped mutexes), the bound
/// is enforced by a lock-free reservation counter, and
/// [`Journal::snapshot`] merges deterministically.
#[derive(Debug)]
pub struct Journal {
    shards: Vec<Mutex<Vec<JournalRecord>>>,
    capacity: usize,
    /// Total push attempts (monotonic; successful reservations are the
    /// first `capacity` of these).
    reserved: AtomicUsize,
    dropped: AtomicU64,
}

impl Journal {
    /// An empty journal with the given capacity.
    pub fn with_capacity(capacity: usize) -> Journal {
        Journal {
            shards: (0..JOURNAL_SHARDS)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            capacity,
            reserved: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// An empty journal with [`DEFAULT_JOURNAL_CAPACITY`].
    pub fn new() -> Journal {
        Journal::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a record, or drops it (counted) when the ring is full.
    ///
    /// Exactly `capacity` pushes ever succeed: each push reserves a
    /// monotonic slot index first, so under any interleaving
    /// `dropped == max(0, total_pushes - capacity)`.
    pub fn record(&self, rec: JournalRecord) {
        if self.reserved.fetch_add(1, Ordering::Relaxed) >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let shard = rec.key.thread as usize % JOURNAL_SHARDS;
        self.shards[shard].lock().unwrap().push(rec);
    }

    /// Records dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deterministically-merged snapshot: records sorted by
    /// `(key, event)` plus the drop counter.
    pub fn snapshot(&self) -> JournalSnapshot {
        let mut records: Vec<JournalRecord> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            records.extend(shard.lock().unwrap().iter().cloned());
        }
        records.sort_by(|a, b| {
            a.key.cmp(&b.key).then_with(|| {
                a.event
                    .partial_cmp(&b.event)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        });
        JournalSnapshot {
            records,
            dropped: self.dropped(),
        }
    }

    /// A recorder handle bound to `thread`. Pass `None` as the journal
    /// to get an inert recorder (disabled observability).
    pub fn recorder(journal: Option<&Journal>, thread: u32) -> JournalRecorder<'_> {
        JournalRecorder {
            journal,
            thread,
            segment: 0,
            seq: 0,
        }
    }
}

impl Default for Journal {
    fn default() -> Journal {
        Journal::new()
    }
}

/// A single-producer emission handle: carries the `(thread, segment)`
/// key context and the intra-key sequence counter. Inert (one branch per
/// emit) when constructed without a journal.
#[derive(Debug)]
pub struct JournalRecorder<'a> {
    journal: Option<&'a Journal>,
    thread: u32,
    segment: u32,
    seq: u32,
}

impl JournalRecorder<'_> {
    /// Whether emits land anywhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// The thread this recorder journals for.
    pub fn thread(&self) -> u32 {
        self.thread
    }

    /// Switches the key's segment scope and resets the sequence counter.
    pub fn set_segment(&mut self, segment: u32) {
        self.segment = segment;
        self.seq = 0;
    }

    /// Emits one event under the current `(thread, segment)` key.
    #[inline]
    pub fn emit(&mut self, event: JournalEvent) {
        let Some(journal) = self.journal else { return };
        journal.record(JournalRecord {
            key: JournalKey {
                thread: self.thread,
                segment: self.segment,
                seq: self.seq,
            },
            event,
        });
        self.seq += 1;
    }
}

/// A sorted, immutable view of everything journaled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalSnapshot {
    /// Records sorted by `(key, event)`.
    pub records: Vec<JournalRecord>,
    /// Records dropped at the ring bound. A non-zero value means the
    /// record list is truncated (scheduling-dependently so); determinism
    /// claims only hold at zero.
    pub dropped: u64,
}

impl JournalSnapshot {
    /// JSONL export: one record per line, fixed field order, plus a
    /// final `journal_summary` line carrying the drop counter.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + self.records.len() * 96);
        for rec in &self.records {
            out.push_str(&rec.to_json());
            out.push('\n');
        }
        out.push_str(&format!(
            "{{\"kind\":\"journal_summary\",\"records\":{},\"dropped\":{}}}\n",
            self.records.len(),
            self.dropped
        ));
        out
    }

    /// Timing-free structure lines (the JSONL lines themselves — the
    /// journal holds no wall-clock data). Byte-identical across
    /// `parallelism` settings when `dropped == 0`.
    pub fn structure(&self) -> Vec<String> {
        self.records.iter().map(JournalRecord::to_json).collect()
    }

    /// Records of one thread.
    pub fn thread(&self, thread: u32) -> impl Iterator<Item = &JournalRecord> {
        self.records.iter().filter(move |r| r.key.thread == thread)
    }

    /// Distinct event kinds present, sorted.
    pub fn kinds(&self) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self.records.iter().map(|r| r.event.kind()).collect();
        v.sort();
        v.dedup();
        v
    }
}

/// One line of a journal JSONL file, re-parsed generically (for
/// `jportal-inspect diff` / `explain` over files from any version).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRecord {
    /// `thread` key field (absent on summary lines).
    pub thread: u64,
    /// `segment` key field.
    pub segment: u64,
    /// `seq` key field.
    pub seq: u64,
    /// Event kind tag.
    pub kind: String,
    /// Remaining payload fields, in wire order, values rendered to
    /// strings (`"true"`/`"false"` for booleans).
    pub fields: Vec<(String, String)>,
}

impl ParsedRecord {
    /// The decision identity this line describes: key fields plus kind.
    /// Two runs' records with equal identities are "the same decision
    /// point" for diffing.
    pub fn identity(&self) -> (u64, u64, u64, &str) {
        (self.thread, self.segment, self.seq, &self.kind)
    }

    /// A payload field by name.
    pub fn field(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Compact human rendering: `kind{k=v,...}`.
    pub fn render(&self) -> String {
        let mut s = self.kind.clone();
        s.push('{');
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(k);
            s.push('=');
            s.push_str(v);
        }
        s.push('}');
        s
    }
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        Value::Str(s) => s.clone(),
        Value::Arr(_) | Value::Obj(_) => "<nested>".to_string(),
    }
}

/// Parses a journal JSONL document into generic records (summary lines
/// included, with zeroed key fields). Fails on the first malformed line.
pub fn parse_jsonl(input: &str) -> Result<Vec<ParsedRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let Value::Obj(pairs) = value else {
            return Err(format!("line {}: not a JSON object", lineno + 1));
        };
        let mut rec = ParsedRecord {
            thread: 0,
            segment: 0,
            seq: 0,
            kind: String::new(),
            fields: Vec::new(),
        };
        for (k, v) in pairs {
            match (k.as_str(), &v) {
                ("thread", Value::Num(n)) => rec.thread = *n as u64,
                ("segment", Value::Num(n)) => rec.segment = *n as u64,
                ("seq", Value::Num(n)) => rec.seq = *n as u64,
                ("kind", Value::Str(s)) => rec.kind = s.clone(),
                _ => rec.fields.push((k, render_value(&v))),
            }
        }
        if rec.kind.is_empty() {
            return Err(format!("line {}: missing \"kind\"", lineno + 1));
        }
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg_event(n: u32) -> JournalEvent {
        JournalEvent::SegmentMatched {
            events: n,
            matched: n,
            restarts: 0,
            frontier_width: 2,
            candidates_tried: 5,
            candidates_pruned: 3,
            dfa_path: true,
        }
    }

    #[test]
    fn records_sort_by_key() {
        let j = Journal::new();
        let mut r = Journal::recorder(Some(&j), 1);
        r.set_segment(2);
        r.emit(seg_event(7));
        let mut r0 = Journal::recorder(Some(&j), 0);
        r0.set_segment(5);
        r0.emit(seg_event(3));
        let snap = j.snapshot();
        assert_eq!(snap.records.len(), 2);
        assert_eq!(snap.records[0].key.thread, 0);
        assert_eq!(snap.records[1].key.thread, 1);
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn seq_increments_within_segment_and_resets() {
        let j = Journal::new();
        let mut r = Journal::recorder(Some(&j), 0);
        r.emit(seg_event(1));
        r.emit(seg_event(2));
        r.set_segment(1);
        r.emit(seg_event(3));
        let snap = j.snapshot();
        let seqs: Vec<(u32, u32)> = snap
            .records
            .iter()
            .map(|r| (r.key.segment, r.key.seq))
            .collect();
        assert_eq!(seqs, vec![(0, 0), (0, 1), (1, 0)]);
    }

    #[test]
    fn inert_recorder_emits_nothing() {
        let j = Journal::new();
        {
            let mut r = Journal::recorder(None, 0);
            assert!(!r.is_enabled());
            r.emit(seg_event(1));
        }
        assert!(j.is_empty());
    }

    #[test]
    fn ring_drop_counter_is_exact() {
        let j = Journal::with_capacity(3);
        let mut r = Journal::recorder(Some(&j), 0);
        for i in 0..10 {
            r.emit(seg_event(i));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 7);
        let snap = j.snapshot();
        assert_eq!(snap.records.len(), 3);
        assert_eq!(snap.dropped, 7);
    }

    #[test]
    fn jsonl_round_trips_through_the_strict_parser() {
        let j = Journal::new();
        let mut r = Journal::recorder(Some(&j), 0);
        r.emit(JournalEvent::HoleOpened {
            hole: 1,
            first_ts: 100,
            last_ts: 200,
            anchor_len: 3,
            anchor: "iload·ifeq\"x".to_string(),
            budget: 40,
        });
        r.emit(JournalEvent::CandidateConsidered {
            hole: 1,
            rank: 0,
            cs_segment: 4,
            offset: 17,
            outcome: CandidateOutcome::PrunedTier1,
            score: 2,
        });
        r.emit(JournalEvent::LintBreak {
            kind: "missing-edge".to_string(),
            index: 9,
            detail: "no edge".to_string(),
        });
        let doc = j.snapshot().to_jsonl();
        let parsed = parse_jsonl(&doc).expect("jsonl parses");
        // 3 records + the summary line.
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed[0].kind, "hole_opened");
        assert_eq!(parsed[0].field("anchor"), Some("iload·ifeq\"x"));
        assert_eq!(parsed[1].field("outcome"), Some("pruned_tier1"));
        assert_eq!(parsed[2].field("break_kind"), Some("missing-edge"));
        assert_eq!(parsed[3].kind, "journal_summary");
        assert_eq!(parsed[3].field("dropped"), Some("0"));
        // Identity ties (thread, segment, seq, kind) together.
        assert_eq!(parsed[0].identity(), (0, 0, 0, "hole_opened"));
        assert_eq!(parsed[1].identity(), (0, 0, 1, "candidate_considered"));
    }

    #[test]
    fn concurrent_pushes_keep_the_bound_and_count_exact() {
        let j = Journal::with_capacity(64);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let j = &j;
                s.spawn(move || {
                    let mut r = Journal::recorder(Some(j), t);
                    for i in 0..32 {
                        r.emit(seg_event(i));
                    }
                });
            }
        });
        assert_eq!(j.len(), 64);
        assert_eq!(j.dropped(), 8 * 32 - 64);
    }
}
