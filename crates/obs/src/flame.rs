//! Self-contained SVG flamegraph renderer for [`ProfileSnapshot`]s.
//!
//! No external crates, no JavaScript: plain nested `<rect>`/`<text>`
//! elements with a `<title>` child per frame so browsers show the
//! frame label and weight (µs of self time, or spans) on hover. Layout
//! and colors are fully deterministic — children sort by label and hues
//! derive from a hash of the frame's category — so equal profiles
//! render byte-identical SVGs.

use crate::profile::ProfileSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write;

const WIDTH: f64 = 1200.0;
const ROW_H: f64 = 18.0;
const PAD: f64 = 10.0;
/// Rects narrower than this are still drawn (they carry a title), but
/// their text label is omitted.
const MIN_LABEL_W: f64 = 60.0;

#[derive(Default)]
struct Node {
    total: u64,
    children: BTreeMap<String, Node>,
}

impl Node {
    fn insert(&mut self, stack: &[String], count: u64) {
        self.total += count;
        if let Some((head, rest)) = stack.split_first() {
            self.children
                .entry(head.clone())
                .or_default()
                .insert(rest, count);
        }
    }

    fn depth(&self) -> usize {
        1 + self.children.values().map(Node::depth).max().unwrap_or(0)
    }
}

fn escape_xml(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Deterministic warm-palette color keyed on the frame's category (the
/// label text before the first `:`), so all frames of one pipeline
/// stage share a hue family.
fn frame_color(label: &str) -> String {
    let cat = label.split(':').next().unwrap_or(label);
    let mut h: u32 = 2166136261;
    for b in cat.bytes() {
        h ^= u32::from(b);
        h = h.wrapping_mul(16777619);
    }
    // Name hash adds small within-category brightness jitter.
    let mut j: u32 = 2166136261;
    for b in label.bytes() {
        j ^= u32::from(b);
        j = j.wrapping_mul(16777619);
    }
    let r = 205 + (h % 50);
    let g = 90 + ((h >> 8) % 110) + (j % 16);
    let b = 30 + ((h >> 16) % 40);
    format!("rgb({},{},{})", r.min(255), g.min(255), b.min(255))
}

/// What every rect's width and title derive from.
struct Scale<'a> {
    /// Pixels per unit of weight.
    px: f64,
    /// The whole profile's weight.
    total: u64,
    /// What a weight counts ([`ProfileSnapshot::unit`]).
    unit: &'a str,
}

fn render_node(
    out: &mut String,
    label: Option<&str>,
    node: &Node,
    x: f64,
    depth: usize,
    scale: &Scale,
) {
    let w = node.total as f64 * scale.px;
    if let Some(label) = label {
        let y = PAD + depth as f64 * ROW_H;
        let pct = 100.0 * node.total as f64 / scale.total.max(1) as f64;
        let esc = escape_xml(label);
        let row_h = ROW_H - 1.0;
        let color = frame_color(label);
        let _ = write!(
            out,
            "<g><title>{esc} ({} {}, {pct:.2}%)</title>\
             <rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{w:.2}\" height=\"{row_h:.2}\" \
             fill=\"{color}\" rx=\"2\" stroke=\"white\" stroke-width=\"0.5\"/>",
            node.total, scale.unit,
        );
        if w >= MIN_LABEL_W {
            // Budget ~7 px per glyph; ellipsize what does not fit.
            let fit = ((w - 8.0) / 7.0) as usize;
            let shown = if label.len() > fit {
                format!("{}..", &label[..fit.saturating_sub(2)])
            } else {
                label.to_string()
            };
            let _ = write!(
                out,
                "<text x=\"{:.2}\" y=\"{:.2}\" font-size=\"12\" \
                 font-family=\"monospace\" fill=\"#201500\">{}</text>",
                x + 4.0,
                y + ROW_H - 5.0,
                escape_xml(&shown),
            );
        }
        out.push_str("</g>");
    }
    let mut cx = x;
    for (child_label, child) in &node.children {
        render_node(out, Some(child_label), child, cx, depth + 1, scale);
        cx += child.total as f64 * scale.px;
    }
}

/// Render a profile snapshot as a standalone SVG flamegraph (root at
/// the top, leaves growing downward). An empty profile renders a
/// placeholder message rather than a degenerate image.
pub fn flame_svg(snap: &ProfileSnapshot) -> String {
    let mut root = Node::default();
    for (stack, count) in &snap.stacks {
        root.insert(stack, *count);
    }
    let rows = root.depth(); // includes the virtual root row
    let height = PAD * 2.0 + ROW_H * rows.max(2) as f64 + 20.0;
    let mut out = String::new();
    let _ = write!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {WIDTH} {height:.0}\">\
         <rect width=\"100%\" height=\"100%\" fill=\"#fdf6ec\"/>",
    );
    if root.total == 0 {
        let _ = write!(
            out,
            "<text x=\"{:.0}\" y=\"{:.0}\" font-size=\"14\" font-family=\"monospace\" \
             fill=\"#555\">no spans recorded yet</text>",
            PAD,
            PAD + 20.0,
        );
    } else {
        let scale = Scale {
            px: (WIDTH - 2.0 * PAD) / root.total as f64,
            total: root.total,
            unit: snap.unit(),
        };
        // Root row spans the full profile.
        let virtual_root = format!("all ({} {})", root.total, snap.unit());
        let y = PAD;
        let _ = write!(
            out,
            "<g><title>{}</title><rect x=\"{PAD}\" y=\"{y}\" width=\"{:.2}\" \
             height=\"{:.2}\" fill=\"#d9c9a8\" rx=\"2\" stroke=\"white\" stroke-width=\"0.5\"/>\
             <text x=\"{:.2}\" y=\"{:.2}\" font-size=\"12\" font-family=\"monospace\" \
             fill=\"#201500\">{}</text></g>",
            escape_xml(&virtual_root),
            WIDTH - 2.0 * PAD,
            ROW_H - 1.0,
            PAD + 4.0,
            y + ROW_H - 5.0,
            escape_xml(&virtual_root),
        );
        render_node(&mut out, None, &root, PAD, 0, &scale);
    }
    let _ = write!(
        out,
        "<text x=\"{:.0}\" y=\"{height:.0}\" font-size=\"11\" font-family=\"monospace\" \
         fill=\"#777\" dy=\"-6\">jportal self-profile · {}</text></svg>",
        PAD,
        if snap.deterministic {
            format!("{} spans · deterministic", root.total)
        } else {
            format!("{} µs of self time", root.total)
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> ProfileSnapshot {
        ProfileSnapshot {
            deterministic: false,
            stacks: vec![
                (vec!["pipeline:analyze".into()], 1),
                (
                    vec!["pipeline:analyze".into(), "decode:decode_segment".into()],
                    4,
                ),
                (
                    vec!["pipeline:analyze".into(), "recover:fill<&>hole".into()],
                    2,
                ),
            ],
        }
    }

    #[test]
    fn svg_is_well_formed_and_escaped() {
        let svg = flame_svg(&sample_snapshot());
        assert!(svg.starts_with("<svg "));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.contains("pipeline:analyze"));
        // The raw <&> from the frame label must be escaped.
        assert!(svg.contains("recover:fill&lt;&amp;&gt;hole"));
        assert!(!svg.contains("fill<&>hole"));
        // Balanced groups.
        assert_eq!(svg.matches("<g>").count(), svg.matches("</g>").count());
    }

    #[test]
    fn svg_is_deterministic_and_weight_proportional() {
        let a = flame_svg(&sample_snapshot());
        let b = flame_svg(&sample_snapshot());
        assert_eq!(a, b);
        // The 4 µs decode frame must be wider than the 2 µs recover
        // frame: compare the rect widths by their titles.
        let width_of = |frag: &str| -> f64 {
            let at = a.find(frag).unwrap();
            let rect = &a[at..];
            let w = rect.split("width=\"").nth(1).unwrap();
            w.split('"').next().unwrap().parse().unwrap()
        };
        assert!(width_of("decode:decode_segment (4 µs") > width_of("recover:fill") * 1.5);
        assert!(a.contains("jportal self-profile · 7 µs of self time</text>"));
        let counted = flame_svg(&ProfileSnapshot {
            deterministic: true,
            ..sample_snapshot()
        });
        assert!(counted.contains("decode:decode_segment (4 spans"));
        assert!(counted.contains("jportal self-profile · 7 spans · deterministic</text>"));
    }

    #[test]
    fn empty_profile_renders_placeholder() {
        let svg = flame_svg(&ProfileSnapshot::default());
        assert!(svg.contains("no spans recorded yet"));
        assert!(svg.ends_with("</svg>"));
    }
}
