//! Minimal FASTA reader/writer.

use std::fmt::Write as _;

use crate::error::GenomicsError;
use crate::sequence::{check_alphabet, DnaSequence};

/// One FASTA record: a header line and a sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastaRecord {
    /// The header text (without the leading `>`).
    pub id: String,
    /// The sequence (multi-line bodies are concatenated).
    pub sequence: DnaSequence,
}

/// Parses FASTA text into records.
///
/// Accepts multi-line sequence bodies and blank lines between records.
///
/// # Errors
///
/// Returns [`GenomicsError::MalformedFasta`] if the text does not start with
/// a header, a record has an empty sequence, or a sequence line contains an
/// invalid character.
///
/// # Example
///
/// ```
/// use sieve_genomics::fasta;
///
/// let records = fasta::parse(">seq1\nACGT\nACGT\n>seq2\nTTTT\n")?;
/// assert_eq!(records.len(), 2);
/// assert_eq!(records[0].sequence.len(), 8);
/// # Ok::<(), sieve_genomics::GenomicsError>(())
/// ```
pub fn parse(text: &str) -> Result<Vec<FastaRecord>, GenomicsError> {
    fn finish(
        id: String,
        body: Vec<u8>,
        start: usize,
        records: &mut Vec<FastaRecord>,
    ) -> Result<(), GenomicsError> {
        if body.is_empty() {
            return Err(GenomicsError::MalformedFasta {
                line: start,
                reason: format!("record `{id}` has an empty sequence"),
            });
        }
        records.push(FastaRecord {
            id,
            sequence: DnaSequence::from_checked(body),
        });
        Ok(())
    }

    let mut records = Vec::new();
    let mut current: Option<(String, Vec<u8>, usize)> = None;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('>') {
            if let Some((id, body, start)) = current.take() {
                finish(id, body, start, &mut records)?;
            }
            current = Some((header.trim().to_string(), Vec::new(), lineno));
        } else {
            let Some((_, body, _)) = current.as_mut() else {
                return Err(GenomicsError::MalformedFasta {
                    line: lineno,
                    reason: "sequence data before any `>` header".to_string(),
                });
            };
            // Checked in place, so the error carries the line's number
            // and the body is built once, from checked lines.
            if let Err(GenomicsError::InvalidBase { byte }) = check_alphabet(line.as_bytes()) {
                return Err(GenomicsError::MalformedFasta {
                    line: lineno,
                    reason: format!("invalid sequence byte 0x{byte:02x}"),
                });
            }
            body.extend_from_slice(line.as_bytes());
        }
    }
    if let Some((id, body, start)) = current.take() {
        finish(id, body, start, &mut records)?;
    }
    Ok(records)
}

/// Serializes records to FASTA text (60-column sequence lines).
#[must_use]
pub fn write(records: &[FastaRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let _ = writeln!(out, ">{}", r.id);
        for chunk in r.sequence.as_bytes().chunks(60) {
            let _ = writeln!(out, "{}", std::str::from_utf8(chunk).expect("ASCII"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_single_record() {
        let rs = parse(">x desc\nACGT\n").unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].id, "x desc");
        assert_eq!(rs[0].sequence.to_string(), "ACGT");
    }

    #[test]
    fn parse_multiline_body() {
        let rs = parse(">x\nACGT\nTTTT\n").unwrap();
        assert_eq!(rs[0].sequence.to_string(), "ACGTTTTT");
    }

    #[test]
    fn blank_lines_tolerated() {
        let rs = parse("\n>x\nACGT\n\n>y\nTT\n").unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn data_before_header_rejected() {
        let err = parse("ACGT\n").unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn empty_record_rejected() {
        assert!(parse(">x\n>y\nACGT\n").is_err());
        assert!(parse(">x\nACGT\n>y\n").is_err());
    }

    #[test]
    fn invalid_byte_rejected_with_line() {
        let err = parse(">x\nAC!T\n").unwrap_err();
        assert!(err.to_string().contains("line 2"));
        // On a record's third sequence line, after a valid record.
        let err = parse(">w\nAC\n>x\nACGT\nacgt\nAC!T\nACGT\n").unwrap_err();
        assert_eq!(
            err,
            GenomicsError::MalformedFasta {
                line: 6,
                reason: "invalid sequence byte 0x21".to_string(),
            }
        );
    }

    #[test]
    fn multiline_lowercase_body_is_one_upper_case_sequence() {
        let rs = parse(">x\nacgt\nNNac\n\n>y\nt\n").unwrap();
        assert_eq!(rs[0].sequence.as_bytes(), b"ACGTNNAC");
        assert_eq!(rs[1].sequence.as_bytes(), b"T");
    }

    #[test]
    fn write_parse_round_trip() {
        let records = vec![
            FastaRecord {
                id: "a".into(),
                sequence: "ACGTNACGT".parse().unwrap(),
            },
            FastaRecord {
                id: "b".into(),
                sequence: "T".repeat(130).parse().unwrap(),
            },
        ];
        let text = write(&records);
        assert_eq!(parse(&text).unwrap(), records);
    }
}
