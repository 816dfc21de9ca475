//! # charm-bench — figure regeneration and microbenchmarks
//!
//! One binary per data figure of the paper (`src/bin/figNN_*.rs`); each
//! prints the figure's series as an aligned table and writes
//! `results/figNN.csv`. `all_figs` runs everything. The independent runs of
//! a sweep go through [`pool::map`], one worker process per core.
//!
//! Scale: by default each figure runs at a *demo scale* chosen so the whole
//! suite completes in minutes on a laptop while preserving the figure's
//! shape (who wins, by what factor, where crossovers fall). Set
//! `CHARM_FIG_SCALE=full` for PE counts closer to the paper's (slow).

pub mod pool;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Demo vs. full experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast, laptop-friendly parameters (default).
    Demo,
    /// PE counts closer to the paper's (minutes to hours).
    Full,
}

impl Scale {
    /// Read from `CHARM_FIG_SCALE`; a value `Scale::parse` rejects ends
    /// the process, so a typo never runs a demo sweep believed to be full.
    pub fn from_env() -> Scale {
        let var = std::env::var("CHARM_FIG_SCALE").ok();
        Scale::parse(var.as_deref()).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// `demo` / `full` in any case; unset or empty is `demo`.
    pub(crate) fn parse(var: Option<&str>) -> Result<Scale, String> {
        match var.unwrap_or("").to_ascii_lowercase().as_str() {
            "" | "demo" => Ok(Scale::Demo),
            "full" => Ok(Scale::Full),
            other => Err(format!("CHARM_FIG_SCALE={other:?}: expected `demo` or `full`")),
        }
    }

    /// Choose one of two values by scale.
    pub fn pick<T>(self, demo: T, full: T) -> T {
        match self {
            Scale::Demo => demo,
            Scale::Full => full,
        }
    }
}

/// A tabular figure result: column headers plus rows, printed aligned and
/// saved as CSV.
pub struct Figure {
    /// e.g. "fig09".
    pub(crate) id: &'static str,
    /// Short description printed above the table.
    pub(crate) title: &'static str,
    /// Column headers.
    pub(crate) columns: Vec<String>,
    /// Data rows (stringified).
    pub(crate) rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table (paper comparison).
    pub(crate) notes: Vec<String>,
}

impl Figure {
    /// Start a figure table.
    pub fn new(id: &'static str, title: &'static str, columns: &[&str]) -> Figure {
        Figure {
            id,
            title,
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a data row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {}", self.id, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        let _ = writeln!(out, "  {}", header.join("  "));
        for r in &self.rows {
            let line: Vec<String> = r
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(out, "  {}", line.join("  "));
        }
        for n in &self.notes {
            let _ = writeln!(out, "  # {n}");
        }
        out
    }

    /// Write `results/<id>.csv` (relative to the workspace root when run
    /// via cargo, else the current directory).
    pub fn save_csv(&self) -> std::io::Result<PathBuf> {
        self.save_csv_in(&results_dir())
    }

    fn save_csv_in(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        let mut csv = String::new();
        let _ = writeln!(csv, "{}", self.columns.join(","));
        for r in &self.rows {
            let _ = writeln!(csv, "{}", r.join(","));
        }
        for n in &self.notes {
            let _ = writeln!(csv, "# {n}");
        }
        std::fs::write(&path, csv)?;
        Ok(path)
    }

    /// Print and save; a CSV that cannot be written ends the process
    /// non-zero. In a pool worker this does nothing: the parent emits.
    pub fn emit(&self) {
        if pool::is_worker() {
            return;
        }
        if let Err(e) = self.emit_in(&results_dir()) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        pool::report_rss();
    }

    /// [`Figure::emit`] without the exit: the error names the CSV's path.
    fn emit_in(&self, dir: &Path) -> Result<(), String> {
        print!("{}", self.render());
        let path = self.save_csv_in(dir).map_err(|e| {
            format!("{}: cannot write {}.csv under {}: {e}", self.id, self.id, dir.display())
        })?;
        println!("  -> {}\n", path.display());
        Ok(())
    }
}

fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → ../../results
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => PathBuf::from(m).join("../../results"),
        Err(_) => PathBuf::from("results"),
    }
}

/// Path for an artifact in the shared `results/` directory, creating the
/// directory if needed. Used by drivers that write non-Figure outputs
/// (trace JSON/CSV, campaign logs).
pub fn results_path(name: &str) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    Ok(dir.join(name))
}

/// Format seconds with an adaptive unit.
pub fn fmt_s(v: f64) -> String {
    if v >= 1.0 {
        format!("{v:.3}s")
    } else if v >= 1e-3 {
        format!("{:.3}ms", v * 1e3)
    } else {
        format!("{:.1}us", v * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut f = Figure::new("figXX", "test", &["pes", "time"]);
        f.row(vec!["8".into(), "1.25ms".into()]);
        f.row(vec!["1024".into(), "0.3ms".into()]);
        f.note("shape matches");
        let r = f.render();
        assert!(r.contains("figXX"));
        assert!(r.contains("# shape matches"));
        assert_eq!(r.lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut f = Figure::new("figXX", "test", &["a", "b"]);
        f.row(vec!["1".into()]);
    }

    #[test]
    fn scale_picks() {
        assert_eq!(Scale::Demo.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn scale_parses_or_refuses() {
        for demo in [None, Some(""), Some("demo"), Some("DEMO")] {
            assert_eq!(Scale::parse(demo), Ok(Scale::Demo), "{demo:?}");
        }
        for full in ["full", "FULL", "Full"] {
            assert_eq!(Scale::parse(Some(full)), Ok(Scale::Full), "{full}");
        }
        for typo in ["ful", "paper", "smoke", " full"] {
            let refused = Scale::parse(Some(typo)).expect_err(typo);
            assert!(refused.contains("`demo` or `full`") && refused.contains(typo), "{refused}");
        }
    }

    #[test]
    fn a_csv_that_cannot_be_written_fails_the_emit() {
        let tmp = std::env::temp_dir().join(format!("charm-bench-emit-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        // `results` is a regular file, so no CSV can be created under it.
        let results = tmp.join("results");
        std::fs::write(&results, "in the way").unwrap();
        let mut f = Figure::new("figXX", "test", &["a"]);
        f.row(vec!["1".into()]);
        assert!(f.save_csv_in(&results).is_err());
        let failure = f.emit_in(&results).expect_err("emit must report the failure");
        assert!(failure.contains("figXX.csv") && failure.contains("results"), "{failure}");
        std::fs::remove_file(&results).unwrap();
        f.emit_in(&results).expect("and succeeds once the path is free");
        assert_eq!(std::fs::read_to_string(results.join("figXX.csv")).unwrap(), "a\n1\n");
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn formats() {
        assert_eq!(fmt_s(2.5), "2.500s");
        assert_eq!(fmt_s(0.0025), "2.500ms");
        assert_eq!(fmt_s(2.5e-6), "2.5us");
    }
}
