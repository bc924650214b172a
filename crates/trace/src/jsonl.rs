//! JSONL encoding of trace records.
//!
//! One self-contained JSON object per line, discriminated by `"kind"`:
//!
//! ```text
//! {"func":"main","pass":"promote","kind":"promoted","tag":"C","loop_header":1,"loop_depth":1,"lifted_from":1}
//! {"func":"main","pass":"promote","kind":"blocked","tag":"A","loop_header":1,"loop_depth":1,"reason":"call-mod-ref"}
//! {"func":"main","pass":"pointer-promote","kind":"pointer-promoted","base_reg":3,"loop_header":2,"loop_depth":2}
//! {"func":"main","pass":"regalloc","kind":"spilled","reg":12,"round":2}
//! {"func":"main","pass":"dce","kind":"delta","instrs_removed":5,"loads_removed":2,"stores_removed":1}
//! ```
//!
//! Objects are flat (string or integer values only), so the in-tree parser
//! is a few dozen lines and needs no external crates. Unknown keys are
//! ignored on read, so consumers may annotate lines (the benchmark artifact
//! prefixes function names instead, keeping round-trips exact).

use crate::event::{BlockReason, LoopRef, PassEvent, Remark, TraceRecord};
use std::collections::BTreeMap;
use std::fmt;

/// A malformed JSONL line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonlError {
    message: String,
}

impl JsonlError {
    pub(crate) fn new(message: impl Into<String>) -> JsonlError {
        JsonlError {
            message: message.into(),
        }
    }

    /// Human-readable description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for JsonlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed trace JSONL: {}", self.message)
    }
}

impl std::error::Error for JsonlError {}

fn esc(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Obj(String);

impl Obj {
    fn new() -> Obj {
        Obj("{".to_string())
    }
    fn str(&mut self, key: &str, val: &str) -> &mut Obj {
        self.sep();
        esc(key, &mut self.0);
        self.0.push(':');
        esc(val, &mut self.0);
        self
    }
    fn int(&mut self, key: &str, val: i64) -> &mut Obj {
        self.sep();
        esc(key, &mut self.0);
        self.0.push(':');
        self.0.push_str(&val.to_string());
        self
    }
    fn sep(&mut self) {
        if self.0.len() > 1 {
            self.0.push(',');
        }
    }
    fn finish(&mut self) -> String {
        self.0.push('}');
        std::mem::take(&mut self.0)
    }
}

/// Encodes one record as a single JSON object (no trailing newline).
pub fn record_to_json(rec: &TraceRecord) -> String {
    let mut o = Obj::new();
    o.str("func", &rec.func);
    o.str("pass", rec.event.pass());
    match &rec.event {
        PassEvent::Remark { remark, .. } => match remark {
            Remark::Promoted {
                tag,
                in_loop,
                lifted_from,
            } => {
                o.str("kind", "promoted")
                    .str("tag", tag)
                    .int("loop_header", in_loop.header as i64)
                    .int("loop_depth", in_loop.depth as i64)
                    .int("lifted_from", *lifted_from as i64);
            }
            Remark::Blocked {
                tag,
                in_loop,
                reason,
            } => {
                o.str("kind", "blocked")
                    .str("tag", tag)
                    .int("loop_header", in_loop.header as i64)
                    .int("loop_depth", in_loop.depth as i64)
                    .str("reason", reason.label());
            }
            Remark::PointerPromoted { base_reg, in_loop } => {
                o.str("kind", "pointer-promoted")
                    .int("base_reg", *base_reg as i64)
                    .int("loop_header", in_loop.header as i64)
                    .int("loop_depth", in_loop.depth as i64);
            }
            Remark::Spilled { reg, round } => {
                o.str("kind", "spilled")
                    .int("reg", *reg as i64)
                    .int("round", *round as i64);
            }
        },
        PassEvent::Delta {
            instrs_removed,
            loads_removed,
            stores_removed,
            ..
        } => {
            o.str("kind", "delta")
                .int("instrs_removed", *instrs_removed)
                .int("loads_removed", *loads_removed)
                .int("stores_removed", *stores_removed);
        }
    }
    o.finish()
}

/// A parsed flat JSON value.
enum Val {
    Str(String),
    Int(i64),
}

/// Parses one flat JSON object: string keys, string or integer values.
fn parse_flat_object(line: &str) -> Result<BTreeMap<String, Val>, JsonlError> {
    let bytes: Vec<char> = line.trim().chars().collect();
    let mut i = 0;
    let err = |m: &str| JsonlError::new(m.to_string());
    let mut map = BTreeMap::new();
    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && bytes[*i].is_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Result<String, JsonlError> {
        if bytes.get(*i) != Some(&'"') {
            return Err(err("expected string"));
        }
        *i += 1;
        let mut s = String::new();
        while let Some(&c) = bytes.get(*i) {
            *i += 1;
            match c {
                '"' => return Ok(s),
                '\\' => {
                    let e = bytes.get(*i).copied().ok_or_else(|| err("bad escape"))?;
                    *i += 1;
                    match e {
                        '"' => s.push('"'),
                        '\\' => s.push('\\'),
                        '/' => s.push('/'),
                        'n' => s.push('\n'),
                        't' => s.push('\t'),
                        'r' => s.push('\r'),
                        'u' => {
                            if *i + 4 > bytes.len() {
                                return Err(err("short \\u escape"));
                            }
                            let hex: String = bytes[*i..*i + 4].iter().collect();
                            *i += 4;
                            let code =
                                u32::from_str_radix(&hex, 16).map_err(|_| err("bad \\u escape"))?;
                            s.push(char::from_u32(code).ok_or_else(|| err("bad \\u code point"))?);
                        }
                        _ => return Err(err("unknown escape")),
                    }
                }
                c => s.push(c),
            }
        }
        Err(err("unterminated string"))
    };
    skip_ws(&mut i);
    if bytes.get(i) != Some(&'{') {
        return Err(err("expected '{'"));
    }
    i += 1;
    skip_ws(&mut i);
    if bytes.get(i) == Some(&'}') {
        return Ok(map);
    }
    loop {
        skip_ws(&mut i);
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if bytes.get(i) != Some(&':') {
            return Err(err("expected ':'"));
        }
        i += 1;
        skip_ws(&mut i);
        let val = match bytes.get(i) {
            Some('"') => Val::Str(parse_string(&mut i)?),
            Some(c) if *c == '-' || c.is_ascii_digit() => {
                let start = i;
                if bytes[i] == '-' {
                    i += 1;
                }
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                Val::Int(text.parse().map_err(|_| err("bad integer"))?)
            }
            _ => return Err(err("expected string or integer value")),
        };
        map.insert(key, val);
        skip_ws(&mut i);
        match bytes.get(i) {
            Some(',') => {
                i += 1;
            }
            Some('}') => {
                i += 1;
                break;
            }
            _ => return Err(err("expected ',' or '}'")),
        }
    }
    skip_ws(&mut i);
    if i != bytes.len() {
        return Err(err("trailing characters after object"));
    }
    Ok(map)
}

fn get_str(map: &BTreeMap<String, Val>, key: &str) -> Result<String, JsonlError> {
    match map.get(key) {
        Some(Val::Str(s)) => Ok(s.clone()),
        _ => Err(JsonlError::new(format!("missing string field \"{key}\""))),
    }
}

fn get_int(map: &BTreeMap<String, Val>, key: &str) -> Result<i64, JsonlError> {
    match map.get(key) {
        Some(Val::Int(n)) => Ok(*n),
        _ => Err(JsonlError::new(format!("missing integer field \"{key}\""))),
    }
}

fn get_u32(map: &BTreeMap<String, Val>, key: &str) -> Result<u32, JsonlError> {
    u32::try_from(get_int(map, key)?)
        .map_err(|_| JsonlError::new(format!("field \"{key}\" out of range")))
}

/// Pass labels survive the round trip as `&'static str` by interning into
/// the known label set, which holds every label the pipeline writes; any
/// other label is an error.
fn intern_pass(name: &str) -> Result<&'static str, JsonlError> {
    const KNOWN: &[&str] = &[
        "normalize",
        "analysis",
        "strengthen",
        "promote",
        "pointer-promote",
        "lvn",
        "loadelim",
        "constprop",
        "licm",
        "dce",
        "clean",
        "regalloc",
    ];
    KNOWN
        .iter()
        .find(|k| **k == name)
        .copied()
        .ok_or_else(|| JsonlError::new(format!("unknown pass \"{name}\"")))
}

/// Decodes one JSONL line back into a record. Unknown keys are ignored.
///
/// # Errors
///
/// Returns an error for malformed JSON, a missing required field, an
/// unknown `pass`, or an unknown `kind`.
pub fn record_from_json(line: &str) -> Result<TraceRecord, JsonlError> {
    let map = parse_flat_object(line)?;
    let func = get_str(&map, "func")?;
    let pass = intern_pass(&get_str(&map, "pass")?)?;
    let kind = get_str(&map, "kind")?;
    let in_loop = |map: &BTreeMap<String, Val>| -> Result<LoopRef, JsonlError> {
        Ok(LoopRef {
            header: get_u32(map, "loop_header")?,
            depth: get_u32(map, "loop_depth")?,
        })
    };
    let event = match kind.as_str() {
        "promoted" => PassEvent::Remark {
            pass,
            remark: Remark::Promoted {
                tag: get_str(&map, "tag")?,
                in_loop: in_loop(&map)?,
                lifted_from: get_u32(&map, "lifted_from")?,
            },
        },
        "blocked" => {
            let label = get_str(&map, "reason")?;
            let reason = BlockReason::from_label(&label)
                .ok_or_else(|| JsonlError::new(format!("unknown block reason \"{label}\"")))?;
            PassEvent::Remark {
                pass,
                remark: Remark::Blocked {
                    tag: get_str(&map, "tag")?,
                    in_loop: in_loop(&map)?,
                    reason,
                },
            }
        }
        "pointer-promoted" => PassEvent::Remark {
            pass,
            remark: Remark::PointerPromoted {
                base_reg: get_u32(&map, "base_reg")?,
                in_loop: in_loop(&map)?,
            },
        },
        "spilled" => PassEvent::Remark {
            pass,
            remark: Remark::Spilled {
                reg: get_u32(&map, "reg")?,
                round: get_int(&map, "round")? as usize,
            },
        },
        "delta" => PassEvent::Delta {
            pass,
            instrs_removed: get_int(&map, "instrs_removed")?,
            loads_removed: get_int(&map, "loads_removed")?,
            stores_removed: get_int(&map, "stores_removed")?,
        },
        other => return Err(JsonlError::new(format!("unknown kind \"{other}\""))),
    };
    Ok(TraceRecord { func, event })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceLog;

    fn sample_log() -> TraceLog {
        let mut log = TraceLog::new();
        log.extend_func(
            "main",
            vec![
                PassEvent::Remark {
                    pass: "promote",
                    remark: Remark::Promoted {
                        tag: "C".into(),
                        in_loop: LoopRef {
                            header: 1,
                            depth: 1,
                        },
                        lifted_from: 1,
                    },
                },
                PassEvent::Remark {
                    pass: "promote",
                    remark: Remark::Blocked {
                        tag: "A".into(),
                        in_loop: LoopRef {
                            header: 1,
                            depth: 1,
                        },
                        reason: BlockReason::CallModRef,
                    },
                },
                PassEvent::Remark {
                    pass: "regalloc",
                    remark: Remark::Spilled { reg: 40, round: 2 },
                },
                PassEvent::Remark {
                    pass: "pointer-promote",
                    remark: Remark::PointerPromoted {
                        base_reg: 3,
                        in_loop: LoopRef {
                            header: 4,
                            depth: 2,
                        },
                    },
                },
                PassEvent::Delta {
                    pass: "dce",
                    instrs_removed: 5,
                    loads_removed: -2,
                    stores_removed: 1,
                },
            ],
        );
        log
    }

    #[test]
    fn round_trip_is_exact() {
        let log = sample_log();
        let encoded = log.to_jsonl();
        let decoded = TraceLog::from_jsonl(&encoded).expect("parses");
        assert_eq!(decoded, log);
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let line = r#"{"func":"main","pass":"dce","kind":"delta","instrs_removed":1,"loads_removed":0,"stores_removed":0,"program":"tsp"}"#;
        let rec = record_from_json(line).expect("parses");
        assert_eq!(rec.func, "main");
    }

    #[test]
    fn escaped_names_round_trip() {
        let mut log = TraceLog::new();
        log.extend_func(
            "we\"ird\\name",
            vec![PassEvent::Delta {
                pass: "clean",
                instrs_removed: -1,
                loads_removed: 0,
                stores_removed: 7,
            }],
        );
        let decoded = TraceLog::from_jsonl(&log.to_jsonl()).expect("parses");
        assert_eq!(decoded, log);
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        let good = r#"{"func":"f","pass":"dce","kind":"delta","instrs_removed":1,"loads_removed":0,"stores_removed":0}"#;
        let bad = format!("{good}\n{{\"func\":\"f\",\"kind\":17}}\n");
        let e = TraceLog::from_jsonl(&bad).unwrap_err();
        assert!(e.message().contains("line 2"), "{e}");
        for broken in [
            "{",
            "{\"func\"}",
            "{\"func\":}",
            r#"{"func":"f"} trailing"#,
            r#"{"func":"f","pass":"dce","kind":"mystery"}"#,
            r#"{"func":"f","pass":"future-pass","kind":"delta","instrs_removed":1,"loads_removed":0,"stores_removed":0}"#,
            r#"{"func":"f","pass":"dce","kind":"blocked","tag":"t","loop_header":1,"loop_depth":1,"reason":"nope"}"#,
        ] {
            assert!(record_from_json(broken).is_err(), "accepted: {broken}");
        }
        let e = TraceLog::from_jsonl(&good.replace("dce", "future-pass")).unwrap_err();
        assert!(
            e.message().contains("line 1: unknown pass \"future-pass\""),
            "{e}"
        );
    }
}
