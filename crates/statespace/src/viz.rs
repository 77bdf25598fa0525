//! SVG rendering of the state space — the paper's visualisation claim.
//!
//! One of Stay-Away's stated contributions is that the state-space
//! representation "helps visualise co-located execution" (§1, §6): the
//! figures 5–7 and 17–18 of the paper are exactly such renderings. This
//! module produces them as self-contained SVG documents — safe states,
//! violation-states with their violation-ranges, and optional execution
//! trajectories — with no external dependencies.

use crate::map::{StateKind, StateMap};
use crate::point::Point2;
use std::fmt::Write as _;

/// Fill of safe states.
const SAFE_FILL: &str = "#4c78a8";
/// Fill of violation states.
const VIOLATION_FILL: &str = "#e45756";
/// Stroke of violation-range circles.
const RANGE_STROKE: &str = "#e45756";
/// Strokes of trajectory polylines, cycled per trajectory.
const TRAIL_STROKES: [&str; 4] = ["#72b7b2", "#eeca3b", "#b279a2", "#ff9da6"];
/// Background colour.
const BACKGROUND: &str = "#ffffff";

/// Builder for a state-space SVG.
#[derive(Debug)]
pub struct MapRenderer<'a> {
    map: &'a StateMap,
    width: u32,
    height: u32,
    trails: Vec<(String, Vec<Point2>)>,
    title: Option<String>,
}

impl<'a> MapRenderer<'a> {
    /// Starts rendering `map` on a canvas of the given pixel size.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(map: &'a StateMap, width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "canvas must be non-empty");
        MapRenderer {
            map,
            width,
            height,
            trails: Vec::new(),
            title: None,
        }
    }

    /// Adds a labelled execution trajectory.
    pub fn trail(mut self, label: impl Into<String>, points: Vec<Point2>) -> Self {
        self.trails.push((label.into(), points));
        self
    }

    /// Sets a title caption.
    pub fn title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Renders the SVG document.
    pub fn render(&self) -> String {
        // Data bounds over states, ranges and trails.
        let mut min = (f64::INFINITY, f64::INFINITY);
        let mut max = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        let mut extend = |p: Point2, pad: f64| {
            min.0 = min.0.min(p.x - pad);
            min.1 = min.1.min(p.y - pad);
            max.0 = max.0.max(p.x + pad);
            max.1 = max.1.max(p.y + pad);
        };
        for (i, e) in self.map.iter().enumerate() {
            let pad = if e.kind() == StateKind::Violation {
                self.map
                    .violation_range(i)
                    .map(|r| r.radius())
                    .unwrap_or(0.0)
            } else {
                0.0
            };
            extend(e.point(), pad);
        }
        for (_, trail) in &self.trails {
            for &p in trail {
                extend(p, 0.0);
            }
        }
        if !min.0.is_finite() {
            min = (-1.0, -1.0);
            max = (1.0, 1.0);
        }
        // Symmetric padding and degenerate-span protection.
        let span_x = (max.0 - min.0).max(1e-6);
        let span_y = (max.1 - min.1).max(1e-6);
        let margin = 30.0;
        let sx = (f64::from(self.width) - 2.0 * margin) / span_x;
        let sy = (f64::from(self.height) - 2.0 * margin) / span_y;
        let scale = sx.min(sy);
        let to_px = |p: Point2| -> (f64, f64) {
            (
                margin + (p.x - min.0) * scale,
                // SVG y grows downward; flip so the map reads like a plot.
                f64::from(self.height) - margin - (p.y - min.1) * scale,
            )
        };

        let mut svg = String::new();
        let _ = writeln!(
            svg,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">"#,
            w = self.width,
            h = self.height
        );
        let _ = writeln!(
            svg,
            r#"<rect width="100%" height="100%" fill="{}"/>"#,
            BACKGROUND
        );
        if let Some(title) = &self.title {
            let _ = writeln!(
                svg,
                r#"<text x="{}" y="20" font-family="sans-serif" font-size="14" text-anchor="middle">{}</text>"#,
                self.width / 2,
                xml_escape(title)
            );
        }

        // Violation ranges first (underneath everything).
        for (i, e) in self.map.iter().enumerate() {
            if e.kind() != StateKind::Violation {
                continue;
            }
            if let Ok(range) = self.map.violation_range(i) {
                if range.radius() > 0.0 {
                    let (cx, cy) = to_px(range.center());
                    let _ = writeln!(
                        svg,
                        r#"<circle cx="{cx:.1}" cy="{cy:.1}" r="{:.1}" fill="{color}" fill-opacity="0.08" stroke="{color}" stroke-opacity="0.4" stroke-dasharray="4 3"/>"#,
                        range.radius() * scale,
                        color = RANGE_STROKE
                    );
                }
            }
        }

        // Trajectories.
        for (t, (label, trail)) in self.trails.iter().enumerate() {
            if trail.len() < 2 {
                continue;
            }
            let color = TRAIL_STROKES[t % TRAIL_STROKES.len()];
            let mut path = String::new();
            for &p in trail {
                let (x, y) = to_px(p);
                let _ = write!(path, "{x:.1},{y:.1} ");
            }
            let _ = writeln!(
                svg,
                r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="1.2" stroke-opacity="0.7"><title>{}</title></polyline>"#,
                path.trim_end(),
                xml_escape(label)
            );
        }

        // States on top, sized by visit count.
        for (i, e) in self.map.iter().enumerate() {
            let (cx, cy) = to_px(e.point());
            let r = 3.0 + (e.visits() as f64).ln_1p();
            let color = match e.kind() {
                StateKind::Violation => VIOLATION_FILL,
                StateKind::Safe => SAFE_FILL,
            };
            let _ = writeln!(
                svg,
                r#"<circle cx="{cx:.1}" cy="{cy:.1}" r="{r:.1}" fill="{color}" fill-opacity="0.85"><title>S{i}: {} visits, {}</title></circle>"#,
                e.visits(),
                match e.kind() {
                    StateKind::Violation => "violation",
                    StateKind::Safe => "safe",
                }
            );
        }
        svg.push_str("</svg>\n");
        svg
    }

    /// Renders and writes the SVG to a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::ExecutionMode;

    fn sample_map() -> StateMap {
        let mut m = StateMap::new();
        m.set_coordinate_scale(1.0).unwrap();
        m.visit(0, Point2::new(0.0, 0.0), ExecutionMode::SensitiveOnly, 1)
            .unwrap();
        m.visit(1, Point2::new(1.0, 0.5), ExecutionMode::CoLocated, 2)
            .unwrap();
        m.visit(2, Point2::new(0.2, 0.9), ExecutionMode::CoLocated, 3)
            .unwrap();
        m.mark_violation(1).unwrap();
        m
    }

    #[test]
    fn renders_well_formed_svg() {
        let map = sample_map();
        let svg = MapRenderer::new(&map, 400, 300)
            .title("test map")
            .trail("run", vec![Point2::new(0.0, 0.0), Point2::new(1.0, 0.5)])
            .render();
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<circle").count(), 4); // 3 states + 1 range
        assert!(svg.contains("<polyline"));
        assert!(svg.contains("test map"));
        // Balanced tags.
        assert_eq!(svg.matches("<svg").count(), svg.matches("</svg>").count());
    }

    #[test]
    fn empty_map_renders_without_panicking() {
        let map = StateMap::new();
        let svg = MapRenderer::new(&map, 100, 100).render();
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn coordinates_stay_inside_the_canvas() {
        let map = sample_map();
        let svg = MapRenderer::new(&map, 400, 300).render();
        for cap in ["cx=\"", "cy=\""] {
            for chunk in svg.split(cap).skip(1) {
                let v: f64 = chunk
                    .split('"')
                    .next()
                    .unwrap()
                    .parse()
                    .expect("numeric coordinate");
                assert!((-0.001..=400.001).contains(&v), "coordinate {v} escapes");
            }
        }
    }

    #[test]
    fn titles_are_escaped() {
        let map = sample_map();
        let svg = MapRenderer::new(&map, 100, 100).title("a < b & c").render();
        assert!(svg.contains("a &lt; b &amp; c"));
    }

    #[test]
    fn save_writes_a_file() {
        let map = sample_map();
        let path = std::env::temp_dir().join("stayaway-viz-test.svg");
        MapRenderer::new(&map, 200, 200).save(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("<svg"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    #[should_panic(expected = "canvas")]
    fn zero_canvas_panics() {
        let map = StateMap::new();
        let _ = MapRenderer::new(&map, 0, 100);
    }
}
