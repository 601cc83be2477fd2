//! Plain-text (CSV) trace persistence.
//!
//! Traces are flat request streams, so a four-column CSV
//! (`id,arrival,task_type,deadline`) round-trips them exactly without
//! pulling a serialization-format dependency into the workspace. The format
//! is also convenient for importing request streams recorded elsewhere.

use std::fmt;
use std::io::{BufRead, Write};

use rtrm_platform::{Request, RequestId, TaskTypeId, Time, Trace};

/// Error produced when parsing a trace CSV.
#[derive(Debug)]
pub enum ReadTraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line (1-based line number and description).
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadTraceError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            ReadTraceError::Parse { line, message } => {
                write!(f, "trace csv line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadTraceError::Io(e) => Some(e),
            ReadTraceError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for ReadTraceError {
    fn from(e: std::io::Error) -> Self {
        ReadTraceError::Io(e)
    }
}

/// Writes `trace` as CSV (`id,arrival,task_type,deadline`, one header line).
///
/// A `&mut` reference can be passed as the writer.
///
/// # Errors
///
/// Propagates any I/O error from `writer`.
///
/// # Examples
///
/// ```
/// use rtrm_platform::{Request, RequestId, TaskTypeId, Time, Trace};
/// use rtrm_trace::{read_trace_csv, write_trace_csv};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = Trace::new(vec![Request {
///     id: RequestId::new(0),
///     arrival: Time::new(0.5),
///     task_type: TaskTypeId::new(3),
///     deadline: Time::new(12.0),
/// }]);
/// let mut buffer = Vec::new();
/// write_trace_csv(&trace, &mut buffer)?;
/// let back = read_trace_csv(buffer.as_slice())?;
/// assert_eq!(back, trace);
/// # Ok(())
/// # }
/// ```
pub fn write_trace_csv<W: Write>(trace: &Trace, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "id,arrival,task_type,deadline")?;
    for r in trace.iter() {
        // RFC-ready float formatting: full round-trip precision.
        writeln!(
            writer,
            "{},{:?},{},{:?}",
            r.id.index(),
            r.arrival.value(),
            r.task_type.index(),
            r.deadline.value()
        )?;
    }
    Ok(())
}

/// Reads a trace written by [`write_trace_csv`] (or hand-authored in the
/// same four-column format). A `&mut` reference can be passed as the
/// reader.
///
/// # Errors
///
/// Returns [`ReadTraceError::Io`] on I/O failure and
/// [`ReadTraceError::Parse`] on malformed content — including out-of-order
/// arrivals or non-dense ids, which [`Trace::new`] would reject by panic,
/// negative arrivals (simulated time starts at 0), and relative deadlines
/// that are not positive.
pub fn read_trace_csv<R: BufRead>(reader: R) -> Result<Trace, ReadTraceError> {
    let mut requests = Vec::new();
    for (index, line) in reader.lines().enumerate() {
        let line = line?;
        let text = line.trim();
        if index == 0 {
            if text != "id,arrival,task_type,deadline" {
                return Err(ReadTraceError::Parse {
                    line: 1,
                    message: format!("unexpected header {text:?}"),
                });
            }
            continue;
        }
        if text.is_empty() {
            continue;
        }
        let fields: Vec<&str> = text.split(',').collect();
        if fields.len() != 4 {
            return Err(ReadTraceError::Parse {
                line: index + 1,
                message: format!("expected 4 fields, found {}", fields.len()),
            });
        }
        let parse_usize = |s: &str, what: &str| {
            s.parse::<usize>().map_err(|e| ReadTraceError::Parse {
                line: index + 1,
                message: format!("bad {what} {s:?}: {e}"),
            })
        };
        let parse_time = |s: &str, what: &str| {
            let v = s.parse::<f64>().map_err(|e| ReadTraceError::Parse {
                line: index + 1,
                message: format!("bad {what} {s:?}: {e}"),
            })?;
            if !v.is_finite() {
                return Err(ReadTraceError::Parse {
                    line: index + 1,
                    message: format!("{what} must be finite, found {s:?}"),
                });
            }
            Ok(Time::new(v))
        };
        let id = parse_usize(fields[0], "id")?;
        let arrival = parse_time(fields[1], "arrival")?;
        let task_type = parse_usize(fields[2], "task_type")?;
        let deadline = parse_time(fields[3], "deadline")?;
        if arrival < Time::ZERO {
            return Err(ReadTraceError::Parse {
                line: index + 1,
                message: format!("arrival must be non-negative, found {}", fields[1]),
            });
        }
        if deadline <= Time::ZERO {
            return Err(ReadTraceError::Parse {
                line: index + 1,
                message: format!("relative deadline must be positive, found {}", fields[3]),
            });
        }
        if id != requests.len() {
            return Err(ReadTraceError::Parse {
                line: index + 1,
                message: format!("ids must be dense: expected {}, found {id}", requests.len()),
            });
        }
        if let Some(prev) = requests.last() {
            let prev: &Request = prev;
            if prev.arrival > arrival {
                return Err(ReadTraceError::Parse {
                    line: index + 1,
                    message: "arrivals must be non-decreasing".into(),
                });
            }
        }
        requests.push(Request {
            id: RequestId::new(id),
            arrival,
            task_type: TaskTypeId::new(task_type),
            deadline,
        });
    }
    Ok(Trace::new(requests))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_catalog, generate_trace, CatalogConfig, TraceConfig};
    use rand::SeedableRng;
    use rtrm_platform::Platform;

    #[test]
    fn round_trip_preserves_generated_trace() {
        let platform = Platform::paper_default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let catalog = generate_catalog(&platform, &CatalogConfig::paper(), &mut rng);
        let trace = generate_trace(&catalog, &TraceConfig::calibrated_vt(), &mut rng);
        let mut buffer = Vec::new();
        write_trace_csv(&trace, &mut buffer).expect("write to memory");
        let back = read_trace_csv(buffer.as_slice()).expect("parse own output");
        assert_eq!(back, trace);
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_trace_csv("arrival,id\n".as_bytes()).unwrap_err();
        assert!(
            matches!(err, ReadTraceError::Parse { line: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_wrong_field_count() {
        let data = "id,arrival,task_type,deadline\n0,1.0,2\n";
        let err = read_trace_csv(data.as_bytes()).unwrap_err();
        assert!(
            matches!(err, ReadTraceError::Parse { line: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_non_dense_ids() {
        let data = "id,arrival,task_type,deadline\n1,0.0,0,5.0\n";
        let err = read_trace_csv(data.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("dense"), "{err}");
    }

    #[test]
    fn rejects_time_travel() {
        let data = "id,arrival,task_type,deadline\n0,5.0,0,5.0\n1,1.0,0,5.0\n";
        let err = read_trace_csv(data.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("non-decreasing"), "{err}");
    }

    #[test]
    fn rejects_nan() {
        let data = "id,arrival,task_type,deadline\n0,NaN,0,5.0\n";
        let err = read_trace_csv(data.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
    }

    #[test]
    fn rejects_negative_arrival() {
        let data = "id,arrival,task_type,deadline\n0,-5.0,0,5.0\n";
        let err = read_trace_csv(data.as_bytes()).unwrap_err();
        assert!(
            matches!(err, ReadTraceError::Parse { line: 2, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("non-negative"), "{err}");
    }

    #[test]
    fn rejects_non_positive_deadline() {
        for deadline in ["0.0", "-1.5"] {
            let data = format!("id,arrival,task_type,deadline\n0,0.0,0,5.0\n1,1.0,0,{deadline}\n");
            let err = read_trace_csv(data.as_bytes()).unwrap_err();
            assert!(
                matches!(err, ReadTraceError::Parse { line: 3, .. }),
                "{err}"
            );
            assert!(err.to_string().contains("positive"), "{err}");
        }
    }

    #[test]
    fn skips_blank_lines() {
        let data = "id,arrival,task_type,deadline\n0,0.0,1,5.0\n\n1,2.5,0,4.0\n";
        let trace = read_trace_csv(data.as_bytes()).expect("blank lines are fine");
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.request(RequestId::new(1)).arrival, Time::new(2.5));
    }
}
