//! Loading user-supplied datasets from CSV — the adoption path for running
//! this library on real data instead of the built-in simulators.
//!
//! The format is one sample per line, numeric feature columns, with an
//! optional label column (by index) used only for evaluation. A header
//! line is auto-detected (first line whose fields are not all numeric).

use crate::{normalize_paper, Dataset, Modality};
use adec_tensor::Matrix;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// CSV loading options.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter.
    pub delimiter: char,
    /// Column index (after splitting) holding the class label, if any.
    /// Labels may be arbitrary strings; they are compacted to `0..k` in
    /// first-appearance order.
    pub label_column: Option<usize>,
    /// Apply the paper's `‖x‖²/d ≈ 1` normalization after loading.
    pub normalize: bool,
    /// Reject any physical line longer than this many bytes (newline
    /// excluded). The budget is enforced *while reading*, so a hostile or
    /// corrupt file — say, one with no newlines at all — errors with a
    /// line number instead of ballooning a line buffer to the file size.
    pub max_line_bytes: usize,
    /// Reject any line that splits into more than this many fields.
    pub max_fields: usize,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: ',',
            label_column: None,
            normalize: true,
            max_line_bytes: 1 << 20,
            max_fields: 1 << 16,
        }
    }
}

/// A CSV parsing/validation error with line context.
#[derive(Debug)]
pub struct CsvError {
    /// 1-based line number (0 = file-level error).
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for CsvError {}

fn err(line: usize, message: impl Into<String>) -> CsvError {
    CsvError {
        line,
        message: message.into(),
    }
}

/// Reads one `\n`-terminated line into `out` (newline excluded), keeping
/// the accumulated length within `max_bytes` *as it reads* — the function
/// returns `Err(())` the moment the budget is exceeded, without slurping
/// the rest of an unbounded line into memory first.
///
/// Returns `Ok(false)` at clean EOF with nothing read.
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    max_bytes: usize,
    out: &mut Vec<u8>,
) -> Result<bool, CsvLineError> {
    out.clear();
    loop {
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) => return Err(CsvLineError::Io(e.to_string())),
        };
        if available.is_empty() {
            return Ok(!out.is_empty()); // EOF: last line may lack a newline
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if out.len() + pos > max_bytes {
                    return Err(CsvLineError::TooLong);
                }
                out.extend_from_slice(available.get(..pos).unwrap_or(available));
                reader.consume(pos + 1);
                return Ok(true);
            }
            None => {
                let n = available.len();
                if out.len() + n > max_bytes {
                    return Err(CsvLineError::TooLong);
                }
                out.extend_from_slice(available);
                reader.consume(n);
            }
        }
    }
}

/// Why [`read_bounded_line`] gave up.
enum CsvLineError {
    /// Line exceeded the byte budget.
    TooLong,
    /// The underlying reader failed.
    Io(String),
}

/// Parses CSV content from any reader into a [`Dataset`].
pub fn read_csv<R: Read>(reader: R, opts: &CsvOptions) -> Result<Dataset, CsvError> {
    let mut buf = BufReader::new(reader);
    let mut rows: Vec<Vec<f32>> = Vec::new();
    let mut raw_labels: Vec<String> = Vec::new();
    let mut width: Option<usize> = None;
    let mut line_bytes: Vec<u8> = Vec::new();

    let mut line_no = 0usize;
    loop {
        line_no += 1;
        match read_bounded_line(&mut buf, opts.max_line_bytes, &mut line_bytes) {
            Ok(true) => {}
            Ok(false) => break,
            Err(CsvLineError::TooLong) => {
                return Err(err(
                    line_no,
                    format!("line exceeds the {}-byte limit", opts.max_line_bytes),
                ))
            }
            Err(CsvLineError::Io(msg)) => return Err(err(line_no, msg)),
        }
        let line = std::str::from_utf8(&line_bytes)
            .map_err(|_| err(line_no, "line is not valid UTF-8"))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        // Bound the field count before collecting: `take` caps the
        // allocation, and seeing one element past the cap distinguishes
        // "exactly at the limit" from "over it".
        let fields: Vec<&str> = trimmed
            .split(opts.delimiter)
            .take(opts.max_fields + 1)
            .map(str::trim)
            .collect();
        if fields.len() > opts.max_fields {
            return Err(err(
                line_no,
                format!("line has more than {} fields", opts.max_fields),
            ));
        }
        if let Some(label_col) = opts.label_column {
            if label_col >= fields.len() {
                return Err(err(
                    line_no,
                    format!("label column {label_col} out of range ({} fields)", fields.len()),
                ));
            }
        }
        let mut feats = Vec::with_capacity(fields.len());
        let mut label = String::new();
        let mut numeric = true;
        for (col, field) in fields.iter().enumerate() {
            if Some(col) == opts.label_column {
                label = field.to_string();
                continue;
            }
            match field.parse::<f32>() {
                Ok(v) if v.is_finite() => feats.push(v),
                Ok(_) => return Err(err(line_no, format!("non-finite value '{field}'"))),
                Err(_) => {
                    numeric = false;
                    break;
                }
            }
        }
        if !numeric {
            if rows.is_empty() {
                continue; // header line
            }
            return Err(err(line_no, "non-numeric feature value"));
        }
        match width {
            None => width = Some(feats.len()),
            Some(w) if w != feats.len() => {
                return Err(err(
                    line_no,
                    format!("inconsistent width: expected {w} features, got {}", feats.len()),
                ))
            }
            _ => {}
        }
        rows.push(feats);
        raw_labels.push(label);
    }

    if rows.is_empty() {
        return Err(err(0, "no data rows"));
    }

    // Compact labels (or all-zero if no label column).
    let (labels, n_classes) = if opts.label_column.is_some() {
        let mut seen: Vec<String> = Vec::new();
        let labels: Vec<usize> = raw_labels
            .iter()
            .map(|l| {
                if let Some(pos) = seen.iter().position(|s| s == l) {
                    pos
                } else {
                    seen.push(l.clone());
                    seen.len() - 1
                }
            })
            .collect();
        let k = seen.len();
        (labels, k)
    } else {
        (vec![0usize; rows.len()], 1)
    };

    let mut data = Matrix::from_rows(&rows);
    if opts.normalize {
        normalize_paper(&mut data);
    }
    Ok(Dataset {
        name: "csv",
        data,
        labels,
        n_classes,
        modality: Modality::Tabular,
    })
}

/// Loads a CSV file from disk.
pub fn load_csv(path: impl AsRef<Path>, opts: &CsvOptions) -> Result<Dataset, CsvError> {
    let file = std::fs::File::open(&path).map_err(|e| err(0, e.to_string()))?;
    read_csv(file, opts)
}

/// Serializes a [`Dataset`] as CSV: one sample per line, features printed
/// with `f32`'s shortest-roundtrip formatting (so write → parse reproduces
/// the exact same bits), and the compact label id appended as the final
/// column when `with_labels` is true.
///
/// The natural read-back options are
/// `CsvOptions { label_column: Some(ds.dim()), normalize: false, .. }`.
/// Note the parser re-compacts labels in first-appearance order: the
/// partition always survives the round trip exactly, and the ids
/// themselves survive whenever class 0 appears before class 1, etc.
pub fn write_csv<W: Write>(
    mut writer: W,
    ds: &Dataset,
    delimiter: char,
    with_labels: bool,
) -> Result<(), CsvError> {
    let mut line = String::new();
    for i in 0..ds.len() {
        line.clear();
        for (c, v) in ds.data.row(i).iter().enumerate() {
            if c > 0 {
                line.push(delimiter);
            }
            line.push_str(&v.to_string());
        }
        if with_labels {
            if ds.dim() > 0 {
                line.push(delimiter);
            }
            line.push_str(&ds.labels[i].to_string());
        }
        line.push('\n');
        writer
            .write_all(line.as_bytes())
            .map_err(|e| err(i + 1, e.to_string()))?;
    }
    Ok(())
}

/// Writes a [`Dataset`] to a CSV file on disk (see [`write_csv`]).
pub fn save_csv(
    path: impl AsRef<Path>,
    ds: &Dataset,
    delimiter: char,
    with_labels: bool,
) -> Result<(), CsvError> {
    let file = std::fs::File::create(&path).map_err(|e| err(0, e.to_string()))?;
    write_csv(std::io::BufWriter::new(file), ds, delimiter, with_labels)
}

#[cfg(test)]
// Test code: exact float comparisons and unwraps are the assertions
// themselves here.
#[allow(clippy::float_cmp, clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn basic_numeric_csv() {
        let content = "1.0,2.0,3.0\n4.0,5.0,6.0\n";
        let ds = read_csv(content.as_bytes(), &CsvOptions {
            normalize: false,
            ..CsvOptions::default()
        })
        .unwrap();
        assert_eq!(ds.data.shape(), (2, 3));
        assert_eq!(ds.n_classes, 1);
        assert_eq!(ds.data.get(1, 2), 6.0);
    }

    #[test]
    fn header_is_skipped() {
        let content = "a,b,label\n1,2,x\n3,4,y\n5,6,x\n";
        let ds = read_csv(content.as_bytes(), &CsvOptions {
            label_column: Some(2),
            normalize: false,
            ..CsvOptions::default()
        })
        .unwrap();
        assert_eq!(ds.data.shape(), (3, 2));
        assert_eq!(ds.n_classes, 2);
        assert_eq!(ds.labels, vec![0, 1, 0]);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let content = "# comment\n\n1,2\n3,4\n";
        let ds = read_csv(content.as_bytes(), &CsvOptions {
            normalize: false,
            ..CsvOptions::default()
        })
        .unwrap();
        assert_eq!(ds.data.rows(), 2);
    }

    #[test]
    fn inconsistent_width_is_an_error_with_line() {
        let content = "1,2\n3,4,5\n";
        let e = read_csv(content.as_bytes(), &CsvOptions::default()).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("inconsistent width"));
    }

    #[test]
    fn non_numeric_mid_file_is_an_error() {
        let content = "1,2\nfoo,4\n";
        let e = read_csv(content.as_bytes(), &CsvOptions::default()).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn non_finite_rejected() {
        let content = "1,inf\n";
        assert!(read_csv(content.as_bytes(), &CsvOptions::default()).is_err());
    }

    #[test]
    fn nan_mid_file_reports_the_offending_line() {
        // A NaN buried past headers, comments, and blank lines must be
        // pinned to its physical 1-based line number, not a row index.
        let content = "# sensor dump\nch0,ch1\n1.0,2.0\n\n3.0,NaN\n5.0,6.0\n";
        let e = read_csv(content.as_bytes(), &CsvOptions::default()).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.message.contains("non-finite"), "message: {}", e.message);
        assert!(e.to_string().starts_with("line 5:"), "display: {e}");
    }

    #[test]
    fn normalization_applied_when_requested() {
        let content = "10,0\n0,10\n";
        let ds = read_csv(content.as_bytes(), &CsvOptions::default()).unwrap();
        // Mean of ‖x‖²/d should be 1.
        let d = ds.dim() as f32;
        let mean: f32 = (0..ds.len())
            .map(|i| ds.data.row(i).iter().map(|v| v * v).sum::<f32>() / d)
            .sum::<f32>()
            / ds.len() as f32;
        assert!((mean - 1.0).abs() < 1e-4);
    }

    #[test]
    fn semicolon_delimiter() {
        let content = "1;2\n3;4\n";
        let ds = read_csv(content.as_bytes(), &CsvOptions {
            delimiter: ';',
            normalize: false,
            ..CsvOptions::default()
        })
        .unwrap();
        assert_eq!(ds.data.shape(), (2, 2));
    }

    #[test]
    fn empty_file_is_an_error() {
        assert!(read_csv("".as_bytes(), &CsvOptions::default()).is_err());
    }

    #[test]
    fn oversized_line_errors_with_line_number_not_oom() {
        // A hostile "CSV": line 3 is one enormous newline-free run. With a
        // small budget the reader must stop at the budget, not buffer the
        // whole run.
        let mut content = b"1,2\n3,4\n".to_vec();
        content.extend(std::iter::repeat_n(b'9', 1 << 16));
        let opts = CsvOptions {
            max_line_bytes: 256,
            normalize: false,
            ..CsvOptions::default()
        };
        let e = read_csv(content.as_slice(), &opts).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("256-byte limit"), "{}", e.message);

        // Same budget, compliant file: loads fine.
        let ok = read_csv(&b"1,2\n3,4\n"[..], &opts).unwrap();
        assert_eq!(ok.data.shape(), (2, 2));

        // A line exactly at the budget is accepted (newline excluded).
        let exact = format!("{}\n", "1,".repeat(127) + "1"); // 255 bytes
        let ds = read_csv(exact.as_bytes(), &opts).unwrap();
        assert_eq!(ds.data.rows(), 1);
    }

    #[test]
    fn too_many_fields_errors_with_line_number() {
        let content = "1,2,3\n".repeat(2) + &"9,".repeat(40) + "9\n";
        let opts = CsvOptions {
            max_fields: 8,
            normalize: false,
            ..CsvOptions::default()
        };
        let e = read_csv(content.as_bytes(), &opts).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("more than 8 fields"), "{}", e.message);

        // Exactly at the cap is fine.
        let at_cap = "1,2,3,4,5,6,7,8\n";
        assert_eq!(
            read_csv(at_cap.as_bytes(), &opts).unwrap().data.shape(),
            (1, 8)
        );
    }

    #[test]
    fn invalid_utf8_errors_with_line_number() {
        let mut content = b"1,2\n".to_vec();
        content.extend([0xff, 0xfe, b',', b'2', b'\n']);
        let e = read_csv(content.as_slice(), &CsvOptions::default()).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("UTF-8"), "{}", e.message);
    }

    #[test]
    fn final_line_without_newline_still_loads() {
        let ds = read_csv(&b"1,2\n3,4"[..], &CsvOptions {
            normalize: false,
            ..CsvOptions::default()
        })
        .unwrap();
        assert_eq!(ds.data.shape(), (2, 2));
        assert_eq!(ds.data.get(1, 1), 4.0);
    }

    #[test]
    fn write_parse_round_trip_is_exact() {
        // Awkward values on purpose: subnormal, shortest-roundtrip-long
        // fractions, extremes — all must survive bit-for-bit.
        let data = Matrix::from_vec(
            3,
            2,
            vec![1.5e-7, -0.1, 3.4028235e38, 0.333_333_34, -2.0, 7.25],
        );
        let ds = Dataset {
            name: "rt",
            data,
            labels: vec![0, 1, 0],
            n_classes: 2,
            modality: Modality::Tabular,
        };
        let mut buf = Vec::new();
        write_csv(&mut buf, &ds, ',', true).unwrap();
        let parsed = read_csv(
            buf.as_slice(),
            &CsvOptions {
                label_column: Some(2),
                normalize: false,
                ..CsvOptions::default()
            },
        )
        .unwrap();
        assert_eq!(parsed.data, ds.data);
        assert_eq!(parsed.labels, ds.labels);
        assert_eq!(parsed.n_classes, ds.n_classes);
    }

    #[test]
    fn write_without_labels_round_trips_features() {
        let ds = Dataset {
            name: "rt2",
            data: Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            labels: vec![7, 9],
            n_classes: 2,
            modality: Modality::Tabular,
        };
        let mut buf = Vec::new();
        write_csv(&mut buf, &ds, ';', false).unwrap();
        let parsed = read_csv(
            buf.as_slice(),
            &CsvOptions {
                delimiter: ';',
                normalize: false,
                ..CsvOptions::default()
            },
        )
        .unwrap();
        assert_eq!(parsed.data, ds.data);
        assert_eq!(parsed.labels, vec![0, 0]);
        assert_eq!(parsed.n_classes, 1);
    }
}
