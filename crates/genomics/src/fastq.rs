//! Minimal FASTQ reader/writer.
//!
//! The paper's query workloads (Table II: `HiSeq_*.fa`, `MiSeq_*.fa`,
//! `simBA5_*.fa`) are Illumina-style short-read files; our read simulator
//! emits this format.

use std::fmt::Write as _;

use crate::error::GenomicsError;
use crate::sequence::DnaSequence;

/// One FASTQ record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastqRecord {
    /// Read identifier (without the leading `@`).
    pub id: String,
    /// The read sequence.
    pub sequence: DnaSequence,
    /// Per-base Phred+33 quality string (same length as `sequence`).
    pub quality: String,
}

/// Parses FASTQ text (strict 4-line records).
///
/// The text is walked once, line by line, into a vector allocated at its
/// final size, so the call holds nothing beyond what it returns. Blank
/// lines between records are skipped, and line ends may be `\n` or
/// `\r\n`.
///
/// # Errors
///
/// Returns [`GenomicsError::MalformedFastq`] on truncated records, missing
/// `@`/`+` markers, invalid sequence characters, or a quality string whose
/// length differs from the sequence.
///
/// # Example
///
/// ```
/// use sieve_genomics::fastq;
///
/// let reads = fastq::parse("@r1\nACGT\n+\nIIII\n")?;
/// assert_eq!(reads[0].sequence.to_string(), "ACGT");
/// # Ok::<(), sieve_genomics::GenomicsError>(())
/// ```
pub fn parse(text: &str) -> Result<Vec<FastqRecord>, GenomicsError> {
    let malformed = |line: usize, reason: String| GenomicsError::MalformedFastq { line, reason };
    let mut records = Vec::with_capacity(count_records(text));
    let mut lines = text.lines();
    // The 1-based number of the line `lines` returned last.
    let mut line = 0;
    while let Some(header) = lines.next() {
        line += 1;
        if header.trim().is_empty() {
            continue;
        }
        let (Some(seq), Some(plus), Some(quality)) = (lines.next(), lines.next(), lines.next())
        else {
            return Err(malformed(
                line,
                "truncated record (need 4 lines)".to_string(),
            ));
        };
        let id = header
            .strip_prefix('@')
            .ok_or_else(|| malformed(line, "expected `@` header".to_string()))?
            .trim()
            .to_string();
        let sequence = DnaSequence::from_bytes(seq.trim_end().as_bytes())
            .map_err(|e| malformed(line + 1, e.to_string()))?;
        if !plus.starts_with('+') {
            return Err(malformed(line + 2, "expected `+` separator".to_string()));
        }
        let quality = quality.trim_end();
        if quality.len() != sequence.len() {
            return Err(malformed(
                line + 3,
                format!(
                    "quality length {} != sequence length {}",
                    quality.len(),
                    sequence.len()
                ),
            ));
        }
        records.push(FastqRecord {
            id,
            sequence,
            quality: quality.to_string(),
        });
        line += 3;
    }
    Ok(records)
}

/// The number of records [`parse`] returns for `text` when it parses:
/// records start at the first non-blank line and at the first non-blank
/// line after each record's four.
fn count_records(text: &str) -> usize {
    let mut lines = text.lines();
    let mut records = 0;
    while let Some(header) = lines.next() {
        if !header.trim().is_empty() {
            records += 1;
            lines.nth(2);
        }
    }
    records
}

/// Serializes records to FASTQ text.
#[must_use]
pub fn write(records: &[FastqRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let _ = writeln!(out, "@{}\n{}\n+\n{}", r.id, r.sequence, r.quality);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_two_records() {
        let rs = parse("@a\nACGT\n+\nIIII\n@b\nTT\n+\nII\n").unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[1].sequence.to_string(), "TT");
    }

    #[test]
    fn truncated_rejected() {
        assert!(parse("@a\nACGT\n+\n").is_err());
    }

    #[test]
    fn missing_at_rejected() {
        assert!(parse("a\nACGT\n+\nIIII\n").is_err());
    }

    #[test]
    fn missing_plus_rejected() {
        assert!(parse("@a\nACGT\n-\nIIII\n").is_err());
    }

    #[test]
    fn quality_length_mismatch_rejected() {
        let err = parse("@a\nACGT\n+\nIII\n").unwrap_err();
        assert!(err.to_string().contains("quality length"));
    }

    #[test]
    fn write_parse_round_trip() {
        let records = vec![FastqRecord {
            id: "read/1".into(),
            sequence: "ACGTN".parse().unwrap(),
            quality: "IIII#".into(),
        }];
        assert_eq!(parse(&write(&records)).unwrap(), records);
    }

    #[test]
    fn errors_keep_their_line_numbers() {
        let good = "\n@a\nAC\n+\nII\n\n";
        for (bad, line, reason) in [
            ("@b\nAC\n+\n", 7, "truncated"),
            ("b\nAC\n+\nII\n", 7, "`@` header"),
            ("@b\nAX\n+\nII\n", 8, "0x58"),
            ("@b\nAC\n-\nII\n", 9, "`+` separator"),
            ("@b\nAC\n+\nI\n", 10, "quality length"),
        ] {
            let err = parse(&format!("{good}{bad}")).unwrap_err();
            assert!(
                matches!(&err, GenomicsError::MalformedFastq { line: at, reason: why }
                    if *at == line && why.contains(reason)),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn records_fill_their_vector_exactly() {
        // Blank lines, CRLF ends and an empty read between records.
        let text = "\r\n@a\r\nACGT\r\n+\r\nIIII\r\n\r\n\n@e\n\n+\n\n\n@b\nTT\n+\nII";
        let rs = parse(text).unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.capacity(), 3);
        assert_eq!(rs[0].quality, "IIII");
        assert!(rs[1].sequence.is_empty());
        assert_eq!(rs[2].sequence.to_string(), "TT");
    }

    #[test]
    fn blank_lines_between_records_tolerated() {
        let rs = parse("@a\nAC\n+\nII\n\n@b\nGT\n+\nII\n").unwrap();
        assert_eq!(rs.len(), 2);
    }
}
