//! Replay files: sample-major microarray streams on disk.
//!
//! A replay file is the streaming subsystem's wire format: **one line per
//! sample** (array), each line holding one whitespace-separated expression
//! value per gene, `#` comments and blank lines ignored. Sample-major
//! order is what a serving pipeline appends as arrays arrive, and what
//! [`crate::StreamDriver`] consumes in `--batch N` windows.
//!
//! Values are written with Rust's shortest round-trip float formatting,
//! so a write → read cycle reproduces the matrix bit-for-bit.
//!
//! [`synthesize_replay`] builds a replay matrix from a
//! [`DatasetPreset`]'s calibrated generator
//! ([`DatasetPreset::scaled_params`]) with an overridden sample count —
//! the way the CI smoke replay and the perf-baseline streaming workloads
//! are produced.

use casbn_expr::{DatasetPreset, ExpressionMatrix, SyntheticMicroarray, SyntheticParams};
use std::io::{BufRead, BufReader, Read, Write};

/// Errors from replay parsing.
#[derive(Debug)]
pub enum ReplayError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line that is not a whitespace-separated float row
    /// (1-based line number, content).
    Parse(usize, String),
    /// A sample row whose gene count differs from the first row's
    /// (1-based line number, got, expected).
    Ragged(usize, usize, usize),
    /// A value that parses but is not finite (`nan`, `inf`, or a
    /// literal such as `1e309` that overflows to infinity): one such
    /// value would poison its gene's running moments for good.
    NonFinite {
        /// 1-based line number.
        line: usize,
        /// 0-based gene (column) index.
        gene: usize,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "i/o error: {e}"),
            ReplayError::Parse(line, s) => write!(f, "line {line}: cannot parse {s:?}"),
            ReplayError::Ragged(line, got, want) => {
                write!(f, "line {line}: {got} values, expected {want}")
            }
            ReplayError::NonFinite { line, gene } => {
                write!(f, "line {line}: gene {gene} value is not finite")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<std::io::Error> for ReplayError {
    fn from(e: std::io::Error) -> Self {
        ReplayError::Io(e)
    }
}

/// Read a sample-major replay stream into a genes × samples matrix.
/// An input with no sample rows yields a `0 × 0` matrix. Every value
/// must be finite ([`ReplayError::NonFinite`] otherwise).
pub fn read_replay<R: Read>(reader: R) -> Result<ExpressionMatrix, ReplayError> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for (lineno, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let s = line.trim();
        if s.is_empty() || s.starts_with('#') {
            continue;
        }
        let row: Vec<f64> = s
            .split_whitespace()
            .map(|t| t.parse::<f64>())
            .collect::<Result<_, _>>()
            .map_err(|_| ReplayError::Parse(lineno + 1, s.to_string()))?;
        if let Some(gene) = row.iter().position(|x| !x.is_finite()) {
            return Err(ReplayError::NonFinite {
                line: lineno + 1,
                gene,
            });
        }
        if let Some(first) = rows.first() {
            if row.len() != first.len() {
                return Err(ReplayError::Ragged(lineno + 1, row.len(), first.len()));
            }
        }
        rows.push(row);
    }
    let samples = rows.len();
    let genes = rows.first().map_or(0, Vec::len);
    let mut m = ExpressionMatrix::zeros(genes, samples);
    for (s, row) in rows.iter().enumerate() {
        for (g, &x) in row.iter().enumerate() {
            m.row_mut(g)[s] = x;
        }
    }
    Ok(m)
}

/// Write `m` as a sample-major replay stream (one line per sample, one
/// shortest-round-trip float per gene), with an optional header comment.
pub fn write_replay<W: Write>(
    m: &ExpressionMatrix,
    mut writer: W,
    header: Option<&str>,
) -> std::io::Result<()> {
    if let Some(h) = header {
        writeln!(writer, "# {h}")?;
    }
    for s in 0..m.samples() {
        let mut line = String::new();
        for g in 0..m.genes() {
            if g > 0 {
                line.push(' ');
            }
            line.push_str(&format!("{}", m.row(g)[s]));
        }
        writeln!(writer, "{line}")?;
    }
    Ok(())
}

/// Synthesize a replay matrix from `preset`'s calibrated generator at
/// dataset fraction `scale`, overriding the sample count to `samples`
/// (the preset's native count when `None`).
///
/// Uses [`DatasetPreset::scaled_params`] and the preset's pinned seed, so
/// replays are deterministic per `(preset, scale, samples)` — the basis
/// of the CI streaming smoke checksum.
pub fn synthesize_replay(
    preset: DatasetPreset,
    scale: f64,
    samples: Option<usize>,
) -> ExpressionMatrix {
    let base = preset.scaled_params(scale);
    let params = SyntheticParams {
        samples: samples.unwrap_or(base.samples),
        ..base
    };
    SyntheticMicroarray::generate(&params, preset.seed()).matrix
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_bit_exact() {
        let m = synthesize_replay(DatasetPreset::Yng, 0.01, Some(6));
        assert!(m.genes() >= 40);
        assert_eq!(m.samples(), 6);
        let mut buf = Vec::new();
        write_replay(&m, &mut buf, Some("yng replay")).unwrap();
        let back = read_replay(&buf[..]).unwrap();
        assert_eq!(back.genes(), m.genes());
        assert_eq!(back.samples(), m.samples());
        for g in 0..m.genes() {
            for s in 0..m.samples() {
                assert_eq!(
                    back.row(g)[s].to_bits(),
                    m.row(g)[s].to_bits(),
                    "({g},{s}) did not round-trip"
                );
            }
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let input = "# header\n\n1 2 3\n# mid\n4 5 6\n";
        let m = read_replay(input.as_bytes()).unwrap();
        assert_eq!(m.genes(), 3);
        assert_eq!(m.samples(), 2);
        assert_eq!(m.row(0), &[1.0, 4.0]);
        assert_eq!(m.row(2), &[3.0, 6.0]);
    }

    #[test]
    fn empty_input_is_empty_matrix() {
        let m = read_replay("# nothing\n".as_bytes()).unwrap();
        assert_eq!(m.genes(), 0);
        assert_eq!(m.samples(), 0);
    }

    #[test]
    fn parse_errors_name_the_line() {
        match read_replay("1 2\nnot numbers\n".as_bytes()) {
            Err(ReplayError::Parse(2, s)) => assert!(s.contains("not")),
            other => panic!("expected parse error, got {other:?}"),
        }
        match read_replay("1 2 3\n4 5\n".as_bytes()) {
            Err(ReplayError::Ragged(2, 2, 3)) => {}
            other => panic!("expected ragged error, got {other:?}"),
        }
        let msg = read_replay("1 2 3\n4 5\n".as_bytes())
            .unwrap_err()
            .to_string();
        assert!(msg.contains("line 2"), "got {msg:?}");
    }

    #[test]
    fn non_finite_values_are_rejected_with_line_and_gene() {
        for (input, line, gene) in [
            ("1 2\n1 NaN\n", 2, 1),
            ("# header\ninf 2\n", 2, 0),
            ("1 2 3\n4 5 6\n0 -inf 1\n", 3, 1),
            ("1e309 0\n", 1, 0),
        ] {
            match read_replay(input.as_bytes()) {
                Err(ReplayError::NonFinite { line: l, gene: g }) => {
                    assert_eq!((l, g), (line, gene), "input {input:?}")
                }
                other => panic!("input {input:?}: expected NonFinite, got {other:?}"),
            }
        }
        let msg = read_replay("1 2\n1 NaN\n".as_bytes())
            .unwrap_err()
            .to_string();
        assert!(
            msg.contains("line 2") && msg.contains("gene 1"),
            "got {msg:?}"
        );
        // the largest finite literal still parses
        assert!(read_replay("1.7976931348623157e308 -1e-300\n".as_bytes()).is_ok());
    }

    #[test]
    fn synthesis_is_deterministic_and_respects_overrides() {
        let a = synthesize_replay(DatasetPreset::Yng, 0.02, Some(12));
        let b = synthesize_replay(DatasetPreset::Yng, 0.02, Some(12));
        assert_eq!(a.genes(), b.genes());
        assert_eq!(a.row(3), b.row(3));
        assert_eq!(a.samples(), 12);
        let native = synthesize_replay(DatasetPreset::Yng, 0.02, None);
        assert_eq!(
            native.samples(),
            DatasetPreset::Yng.params().samples,
            "None keeps the preset's native sample count"
        );
    }
}
