//! Plain-text table formatting for the reproduction binaries.

/// Formats a table with a header row and aligned columns.
///
/// ```
/// use pim_bench::report::format_table;
/// let t = format_table(
///     &["name", "value"],
///     &[vec!["a".into(), "1".into()], vec!["b".into(), "22".into()]],
/// );
/// assert!(t.contains("name"));
/// assert!(t.lines().count() >= 4);
/// ```
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths.iter()) {
            line.push_str(&format!(" {cell:>w$} |", w = w));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Formats a ratio like the paper's text ("11.2x").
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats seconds with an appropriate unit.
pub fn time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else {
        format!("{:.3} us", seconds * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = format_table(&["a", "bb"], &[vec!["xxx".into(), "y".into()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(2.5), "2.50x");
        assert_eq!(time(0.0015), "1.500 ms");
        assert_eq!(time(2.0), "2.000 s");
        assert_eq!(time(2e-6), "2.000 us");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        format_table(&["a"], &[vec!["x".into(), "y".into()]]);
    }
}
