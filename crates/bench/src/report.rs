//! Plain-text reporting: ASCII charts and aligned tables.

/// Renders a series as a multi-line ASCII chart of the given size.
///
/// Values are min-max scaled into `height` rows; `width` columns are
/// produced by averaging buckets of the input. Returns the chart plus an
/// axis line with the value range.
pub(crate) fn ascii_chart(values: &[f64], width: usize, height: usize) -> String {
    if values.is_empty() || width == 0 || height == 0 {
        return String::from("(no data)\n");
    }
    // Bucket the series into `width` columns. Non-finite samples (NaN
    // gaps, infinities from degenerate ratios) are excluded from the
    // bucket mean; a bucket with no finite sample renders as a gap.
    let mut cols: Vec<Option<f64>> = Vec::with_capacity(width.min(values.len()));
    let n = values.len();
    let w = width.min(n);
    for c in 0..w {
        let lo = c * n / w;
        let hi = ((c + 1) * n / w).max(lo + 1);
        let finite: Vec<f64> = values[lo..hi]
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        cols.push((!finite.is_empty()).then(|| finite.iter().sum::<f64>() / finite.len() as f64));
    }
    let finite: Vec<f64> = cols.iter().flatten().copied().collect();
    if finite.is_empty() {
        return String::from("(no finite data)\n");
    }
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);

    let mut rows = vec![vec![b' '; w]; height];
    for (c, v) in cols.iter().enumerate() {
        let Some(v) = v else { continue };
        let level = (((v - min) / span) * (height as f64 - 1.0)).round() as usize;
        for (r, row) in rows.iter_mut().enumerate() {
            let from_bottom = height - 1 - r;
            if from_bottom <= level {
                row[c] = if from_bottom == level { b'*' } else { b'.' };
            }
        }
    }
    let mut out = String::new();
    for row in rows {
        out.push_str(std::str::from_utf8(&row).expect("ascii chart"));
        out.push('\n');
    }
    out.push_str(&format!("min={min:.4} max={max:.4} n={n}\n"));
    out
}

/// Renders a series as a one-line unicode sparkline.
pub(crate) fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    // Range over finite values only; non-finite samples render as gaps
    // instead of poisoning the scale (or indexing off the level table).
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return values.iter().map(|_| ' ').collect();
    }
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|v| {
            if !v.is_finite() {
                return ' ';
            }
            let idx = (((v - min) / span) * 7.0).round() as usize;
            LEVELS[idx.min(7)]
        })
        .collect()
}

/// A fraction as a percentage with one decimal, the tables' cell format.
pub(crate) fn percent(fraction: f64) -> String {
    format!("{:.1}%", 100.0 * fraction)
}

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (extra cells are dropped, missing cells padded).
    pub(crate) fn row(&mut self, cells: &[String]) -> &mut Self {
        let mut r: Vec<String> = cells.iter().take(self.header.len()).cloned().collect();
        while r.len() < self.header.len() {
            r.push(String::new());
        }
        self.rows.push(r);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push(' ');
                line.push_str(cell);
                line.extend(std::iter::repeat_n(' ', w - cell.chars().count() + 1));
                line.push('|');
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&"-".repeat(w + 2));
            sep.push('|');
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_renders_monotone_series() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let chart = ascii_chart(&values, 20, 5);
        assert!(chart.contains('*'));
        // Buckets are averaged: the first column of 0..100 over 20 columns
        // averages 0..4 = 2.0.
        assert!(chart.contains("min=2.0000"), "{chart}");
        // Top-right should be populated, top-left not.
        let lines: Vec<&str> = chart.lines().collect();
        assert!(lines[0].ends_with('*') || lines[0].ends_with('.'));
        assert!(lines[0].starts_with(' '));
    }

    #[test]
    fn chart_handles_degenerate_input() {
        assert_eq!(ascii_chart(&[], 10, 3), "(no data)\n");
        let flat = ascii_chart(&[1.0, 1.0, 1.0], 3, 2);
        assert!(flat.contains('*'));
    }

    #[test]
    fn chart_is_nan_robust() {
        // A NaN sample neither poisons its bucket mean nor the range.
        let values = [0.0, f64::NAN, 1.0, 2.0];
        let chart = ascii_chart(&values, 4, 3);
        assert!(chart.contains("min=0.0000 max=2.0000"), "{chart}");
        // An all-NaN bucket renders as a gap column, not a bar.
        let gappy = [0.0, f64::NAN, 2.0];
        let chart = ascii_chart(&gappy, 3, 2);
        let bottom = chart.lines().nth(1).unwrap();
        assert_eq!(&bottom[1..2], " ", "{chart}");
        // Infinities are treated like NaN gaps.
        let chart = ascii_chart(&[0.0, f64::INFINITY, 2.0], 3, 2);
        assert!(chart.contains("min=0.0000 max=2.0000"), "{chart}");
        assert_eq!(
            ascii_chart(&[f64::NAN, f64::NAN], 2, 2),
            "(no finite data)\n"
        );
    }

    #[test]
    fn sparkline_levels() {
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s.chars().count(), 2);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn sparkline_is_nan_robust() {
        let s = sparkline(&[0.0, f64::NAN, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert_eq!(s.chars().nth(1), Some(' '));
        assert!(s.starts_with('▁') && s.ends_with('█'));
        assert_eq!(sparkline(&[f64::NAN, f64::NAN]), "  ");
    }

    #[test]
    fn table_alignment_and_padding() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer-name".into()]);
        let s = t.render();
        assert!(s.contains("| name"));
        assert!(s.contains("| longer-name"));
        assert_eq!(s.lines().count(), 4);
        // All lines equally wide.
        let widths: Vec<usize> = s.lines().map(|l| l.chars().count()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]));
    }
}
