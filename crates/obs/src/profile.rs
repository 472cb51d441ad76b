//! The self-profile: recorded spans folded into weighted stacks.
//!
//! Every span already carries its category, name, logical parent and
//! self time ([`crate::SpanEvent::self_us`]), so the profile needs no
//! sampler. A stack is a span's own `category:name` frame under its
//! logical ancestors, and its weight is the summed self time of the
//! spans with that stack. In deterministic mode the weight is their
//! count instead, which is the same at any worker count because the
//! span structure is. Snapshots render as flamegraph.pl folded text, an
//! SVG flamegraph (see [`crate::flame`]), or a JSON section inside
//! `/metrics.json`.

use crate::span::SpanCollector;
use std::collections::{BTreeMap, HashMap};

/// An immutable, label-resolved profile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Weights count spans (`true`) or sum µs of self time (`false`).
    pub deterministic: bool,
    /// `(frames, weight)`, root frame first, sorted lexicographically by
    /// frames; no weight is zero.
    pub stacks: Vec<(Vec<String>, u64)>,
}

impl ProfileSnapshot {
    /// What a weight counts: `"spans"` or `"µs"` of self time.
    pub fn unit(&self) -> &'static str {
        if self.deterministic {
            "spans"
        } else {
            "µs"
        }
    }

    /// flamegraph.pl-compatible folded exposition: one
    /// `frame;frame;frame weight` line per stack, sorted.
    pub fn folded_text(&self) -> String {
        let mut out = String::new();
        for (stack, weight) in &self.stacks {
            out.push_str(&stack.join(";"));
            out.push(' ');
            out.push_str(&weight.to_string());
            out.push('\n');
        }
        out
    }

    /// The JSON object embedded in `/metrics.json` under `"profile"`.
    /// Strict JSON; frame labels pass through the exporter's escaper.
    pub fn json_object(&self) -> String {
        use crate::json::write_escaped;
        let mut out = format!("{{\"deterministic\":{},\"unit\":", self.deterministic);
        write_escaped(&mut out, self.unit());
        out.push_str(",\"stacks\":[");
        for (i, (stack, weight)) in self.stacks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"frames\":[");
            for (j, frame) in stack.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_escaped(&mut out, frame);
            }
            out.push_str(&format!("],\"weight\":{weight}}}"));
        }
        out.push_str("]}");
        out
    }

    /// Parse folded text back into weighted stacks — the validation
    /// path for `jportal-inspect profile --check` and the tests. Rejects
    /// empty frames, missing weights, and junk trailers.
    pub fn parse_folded(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
        let mut out = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let (path, count) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: no count separator", lineno + 1))?;
            let count: u64 = count
                .parse()
                .map_err(|_| format!("line {}: bad count {count:?}", lineno + 1))?;
            let frames: Vec<String> = path.split(';').map(str::to_string).collect();
            if frames.iter().any(String::is_empty) {
                return Err(format!("line {}: empty frame in {path:?}", lineno + 1));
            }
            out.push((frames, count));
        }
        Ok(out)
    }
}

/// A span's category, name and logical parent.
type Site = (&'static str, &'static str, Option<&'static str>);

/// Whether two sites are one call site: its spans share their
/// `&'static str`s, so comparing pointers suffices.
fn same_site(a: &Site, b: &Site) -> bool {
    let eq = |x: &str, y: &str| std::ptr::eq(x, y);
    eq(a.0, b.0)
        && eq(a.1, b.1)
        && match (a.2, b.2) {
            (Some(x), Some(y)) => eq(x, y),
            (None, None) => true,
            _ => false,
        }
}

/// Folds the wall spans recorded so far (simulated-time events have no
/// place in a wall-time profile) into a [`ProfileSnapshot`].
///
/// Ancestors are looked up by name, because a span's logical parent is
/// a name. The walk up stops at a name no recorded span has (a parent
/// still open, say) and at a name already on the chain.
pub(crate) fn fold(spans: &SpanCollector, deterministic: bool) -> ProfileSnapshot {
    // One pass over the shards sums each site's weight. The pipeline has
    // a few dozen span sites at most, so a pointer scan of a short list
    // beats hashing strings per span; sites equal by content but not by
    // pointer merge in `frames` and `stacks` below.
    let mut sites: Vec<(Site, u64)> = Vec::new();
    spans.for_each(|e| {
        if e.sim {
            return;
        }
        let site = (e.cat, e.name, e.parent);
        let weight = if deterministic { 1 } else { e.self_us };
        match sites.iter_mut().find(|(s, _)| same_site(s, &site)) {
            Some((_, w)) => *w += weight,
            None => sites.push((site, weight)),
        }
    });
    // Each name's frame for the ancestor walk. Should a name ever carry
    // two, the least one wins, so the pick does not depend on the visit
    // order.
    let mut frames: HashMap<&str, (&str, Option<&str>)> = HashMap::new();
    for &((cat, name, parent), _) in &sites {
        frames
            .entry(name)
            .and_modify(|f| *f = (*f).min((cat, parent)))
            .or_insert((cat, parent));
    }
    let mut stacks: BTreeMap<Vec<String>, u64> = BTreeMap::new();
    for ((cat, name, parent), weight) in sites {
        if weight == 0 {
            continue;
        }
        let mut chain = vec![(cat, name)];
        let mut next = parent;
        while let Some(p) = next {
            let Some(&(cat, grandparent)) = frames.get(p) else {
                break;
            };
            if chain.iter().any(|&(_, n)| n == p) {
                break;
            }
            chain.push((cat, p));
            next = grandparent;
        }
        let stack = chain
            .iter()
            .rev()
            .map(|(c, n)| format!("{c}:{n}"))
            .collect();
        *stacks.entry(stack).or_default() += weight;
    }
    ProfileSnapshot {
        deterministic,
        stacks: stacks.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanEvent;
    use crate::Obs;
    use std::time::Duration;

    fn stacks(p: &ProfileSnapshot) -> Vec<(String, u64)> {
        p.stacks.iter().map(|(s, w)| (s.join(";"), *w)).collect()
    }

    fn event(name: &'static str, parent: Option<&'static str>, self_us: u64) -> SpanEvent {
        SpanEvent {
            cat: "x",
            name,
            parent,
            args: Vec::new(),
            ts_us: 0,
            dur_us: self_us,
            self_us,
            tid: 1,
            sim: false,
        }
    }

    #[test]
    fn folded_round_trips_through_parse() {
        let snap = ProfileSnapshot {
            stacks: vec![
                (vec!["pipeline:analyze".into()], 3),
                (vec!["pipeline:analyze".into(), "decode:seg".into()], 11),
            ],
            ..ProfileSnapshot::default()
        };
        let text = snap.folded_text();
        assert_eq!(text, "pipeline:analyze 3\npipeline:analyze;decode:seg 11\n");
        assert_eq!(ProfileSnapshot::parse_folded(&text).unwrap(), snap.stacks);
        assert!(ProfileSnapshot::parse_folded("nocount\n").is_err());
        assert!(ProfileSnapshot::parse_folded("a;;b 3\n").is_err());
        assert!(ProfileSnapshot::parse_folded("a;b 3x\n").is_err());
        crate::json::validate(&snap.json_object()).unwrap();
    }

    #[test]
    fn nested_same_thread_spans_subtract() {
        let obs = Obs::new(true);
        {
            let _outer = obs.span("pipeline", "analyze");
            std::thread::sleep(Duration::from_millis(2));
            let _inner = obs.span("decode", "piece");
            std::thread::sleep(Duration::from_millis(2));
        }
        let spans = obs.telemetry().spans;
        let outer = spans.iter().find(|e| e.name == "analyze").unwrap();
        let inner = spans.iter().find(|e| e.name == "piece").unwrap();
        assert_eq!(inner.self_us, inner.dur_us);
        assert_eq!(outer.self_us, outer.dur_us - inner.dur_us);
        assert!(outer.self_us >= 1000 && inner.self_us >= 1000);
        assert_eq!(
            stacks(&obs.profile(false)),
            [
                ("pipeline:analyze".to_string(), outer.self_us),
                ("pipeline:analyze;decode:piece".to_string(), inner.self_us),
            ]
        );
    }

    #[test]
    fn pinned_parent_on_another_thread_inherits_its_chain() {
        let obs = Obs::new(true);
        {
            let _root = obs.span("pipeline", "analyze");
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _piece = obs.span("decode", "piece").parent("analyze");
                    let _segment = obs.span("decode", "segment");
                    std::thread::sleep(Duration::from_millis(1));
                });
            });
        }
        assert_eq!(
            stacks(&obs.profile(true)),
            [
                ("pipeline:analyze".to_string(), 1),
                ("pipeline:analyze;decode:piece".to_string(), 1),
                (
                    "pipeline:analyze;decode:piece;decode:segment".to_string(),
                    1
                ),
            ]
        );
        // Only same-thread children subtract: the worker's spans leave
        // the root's self time alone.
        let spans = obs.telemetry().spans;
        let root = spans.iter().find(|e| e.name == "analyze").unwrap();
        assert_eq!(root.self_us, root.dur_us);
    }

    #[test]
    fn name_cycles_terminate_and_unknown_parents_end_the_chain() {
        let c = SpanCollector::new();
        c.push(event("a", Some("b"), 1));
        c.push(event("b", Some("a"), 2));
        c.push(event("c", Some("ghost"), 4));
        c.push(event("d", Some("d"), 8));
        assert_eq!(
            stacks(&fold(&c, false)),
            [
                ("x:a;x:b".to_string(), 2),
                ("x:b;x:a".to_string(), 1),
                ("x:c".to_string(), 4),
                ("x:d".to_string(), 8),
            ]
        );
    }

    #[test]
    fn sites_equal_by_content_merge() {
        let leaked = |s: &str| -> &'static str { Box::leak(s.to_string().into_boxed_str()) };
        let c = SpanCollector::new();
        c.push(event("leaf", Some("root"), 1));
        c.push(event(leaked("leaf"), Some(leaked("root")), 2));
        c.push(event("root", None, 4));
        c.push(event(leaked("root"), None, 8));
        assert_eq!(
            stacks(&fold(&c, false)),
            [("x:root".to_string(), 12), ("x:root;x:leaf".to_string(), 3)]
        );
    }

    #[test]
    fn sim_events_are_excluded() {
        let obs = Obs::new(true);
        obs.sim_event("collect", "overflow", 0, 100, 20, Vec::new());
        assert!(obs.profile(false).stacks.is_empty());
        assert!(obs.profile(true).stacks.is_empty());
        {
            let _s = obs.span("collect", "segregate");
        }
        assert_eq!(
            stacks(&obs.profile(true)),
            [("collect:segregate".to_string(), 1)]
        );
    }

    #[test]
    fn count_weighting_counts_spans_and_time_weighting_drops_zeros() {
        let c = SpanCollector::new();
        c.push(event("leaf", Some("root"), 0));
        c.push(event("leaf", Some("root"), 0));
        c.push(event("leaf", Some("root"), 5));
        c.push(event("root", None, 0));
        let counted = fold(&c, true);
        assert!(counted.deterministic);
        assert_eq!(
            stacks(&counted),
            [("x:root".to_string(), 1), ("x:root;x:leaf".to_string(), 3)]
        );
        let timed = fold(&c, false);
        assert_eq!(stacks(&timed), [("x:root;x:leaf".to_string(), 5)]);
        assert_eq!((counted.unit(), timed.unit()), ("spans", "µs"));
    }
}
