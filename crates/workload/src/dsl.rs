//! The line-oriented workload text format.
//!
//! One declaration per line; `#` starts a comment; blank lines are
//! ignored. The canonical form [`emit`] produces round-trips exactly:
//! `parse(emit(w)) == w` for any valid workload, and
//! `emit(parse(text)) == text` for canonical text (floats print via
//! Rust's shortest-round-trip `Display`, so no precision is lost).
//!
//! ```text
//! workload terasort-small
//! stage gen tasks=10 cpu_secs=1.5 read_mb=0 write_mb=512 stateless read_spread=16 write_spread=16
//! stage sort tasks=25 cpu_secs=10.24 read_mb=0 write_mb=0 stateful exchange_gb=5
//! stage validate tasks=10 cpu_secs=1 read_mb=512 write_mb=1 stateless read_spread=16 write_spread=16
//! edge sort <- gen all-to-all
//! edge validate <- sort one-to-one
//! ```
//!
//! # Grammar
//!
//! Lexically, each line is stripped of its comment (`#` to end of
//! line) and split on whitespace; empty lines vanish before parsing,
//! so indentation and spacing are free. In EBNF over the remaining
//! token lines:
//!
//! ```text
//! workload-file = header , { stage-decl } , { edge-decl } ;
//!
//! header        = "workload" , name ;
//!
//! stage-decl    = "stage" , name ,
//!                 "tasks="    , nat ,
//!                 "cpu_secs=" , num ,
//!                 "read_mb="  , num ,
//!                 "write_mb=" , num ,
//!                 ( stateless | stateful ) ;
//! stateless     = "stateless" , "read_spread=" , nat , "write_spread=" , nat ;
//! stateful      = "stateful"  , "exchange_gb=" , num ;
//!
//! edge-decl     = "edge" , name , "<-" , name , fan ;
//! fan           = "one-to-one" | "all-to-all" ;
//!
//! name          = token ;  (* no whitespace or "#"; validation further
//!                             requires uniqueness *)
//! nat           = token ;  (* Rust usize literal *)
//! num           = token ;  (* Rust f64 literal *)
//! ```
//!
//! Ordering rules the grammar cannot show: the `workload` header comes
//! before any `stage`; an `edge` may only name stages already declared
//! (which, with [`Workload::validate`]'s `from < to` check, forces
//! edges to point forward — the graph is acyclic by construction).
//! Declaration interleaving is otherwise free: `edge` lines may appear
//! between `stage` lines as long as both endpoints exist. The parsed
//! value then passes [`Workload::validate`], so a text that parses but
//! describes an unschedulable graph still fails with
//! [`DslError::Invalid`].
//!
//! Files conventionally use the `.wl` extension; `repro workload
//! path/to.wl` loads one from disk through [`parse`] and runs it like
//! any bundled workload.

use std::fmt;

use serverful::FanIn;

use crate::spec::{Stage, StageEdge, StageKind, ValidateError, Workload};

/// Why a workload text failed to load: a syntax error at a line, or a
/// well-formed description that fails [`Workload::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum DslError {
    /// The text is not well-formed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The text parsed but describes an unschedulable workload.
    Invalid(ValidateError),
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DslError::Parse { line, message } => {
                write!(f, "workload DSL line {line}: {message}")
            }
            DslError::Invalid(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DslError {}

impl From<ValidateError> for DslError {
    fn from(e: ValidateError) -> Self {
        DslError::Invalid(e)
    }
}

fn fan_name(f: FanIn) -> &'static str {
    match f {
        FanIn::OneToOne => "one-to-one",
        FanIn::AllToAll => "all-to-all",
    }
}

/// Renders a workload in the canonical text form: the `workload`
/// header, every stage in order, then every edge in downstream order.
pub fn emit(w: &Workload) -> String {
    let mut out = format!("workload {}\n", w.name);
    for s in &w.stages {
        out.push_str(&format!(
            "stage {} tasks={} cpu_secs={} read_mb={} write_mb={}",
            s.name, s.tasks, s.cpu_secs_per_task, s.read_mb_per_task, s.write_mb_per_task
        ));
        match s.kind {
            StageKind::Stateless { read_spread, write_spread } => out.push_str(&format!(
                " stateless read_spread={read_spread} write_spread={write_spread}\n"
            )),
            StageKind::Stateful { exchange_gb } => {
                out.push_str(&format!(" stateful exchange_gb={exchange_gb}\n"))
            }
        }
    }
    for (to, deps) in w.edges.iter().enumerate() {
        for e in deps {
            out.push_str(&format!(
                "edge {} <- {} {}\n",
                w.stages[to].name,
                w.stages[e.from].name,
                fan_name(e.fan_in)
            ));
        }
    }
    out
}

struct Line<'a> {
    no: usize,
    tokens: Vec<&'a str>,
}

impl Line<'_> {
    fn err(&self, message: impl Into<String>) -> DslError {
        DslError::Parse { line: self.no, message: message.into() }
    }

    /// Consumes `key=<value>` from token position `i`.
    fn kv<T: std::str::FromStr>(&self, i: usize, key: &str) -> Result<T, DslError> {
        let tok = self
            .tokens
            .get(i)
            .ok_or_else(|| self.err(format!("missing `{key}=<value>`")))?;
        let val = tok
            .strip_prefix(key)
            .and_then(|r| r.strip_prefix('='))
            .ok_or_else(|| self.err(format!("expected `{key}=<value>`, got `{tok}`")))?;
        val.parse()
            .map_err(|_| self.err(format!("`{key}` value `{val}` does not parse")))
    }
}

/// Parses (and validates) a workload from its text form.
pub fn parse(text: &str) -> Result<Workload, DslError> {
    let mut name: Option<String> = None;
    let mut stages: Vec<Stage> = Vec::new();
    let mut edges: Vec<Vec<StageEdge>> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let body = raw.split('#').next().unwrap_or("");
        let tokens: Vec<&str> = body.split_whitespace().collect();
        if tokens.is_empty() {
            continue;
        }
        let line = Line { no: idx + 1, tokens };
        match line.tokens[0] {
            "workload" => {
                if name.is_some() {
                    return Err(line.err("duplicate `workload` header"));
                }
                if line.tokens.len() != 2 {
                    return Err(line.err("expected `workload <name>`"));
                }
                name = Some(line.tokens[1].to_owned());
            }
            "stage" => {
                if name.is_none() {
                    return Err(line.err("`workload <name>` header must come first"));
                }
                if line.tokens.len() < 7 {
                    return Err(line.err(
                        "expected `stage <name> tasks= cpu_secs= read_mb= write_mb= stateless|stateful ...`",
                    ));
                }
                let sname = line.tokens[1].to_owned();
                let tasks: usize = line.kv(2, "tasks")?;
                let cpu_secs_per_task: f64 = line.kv(3, "cpu_secs")?;
                let read_mb_per_task: f64 = line.kv(4, "read_mb")?;
                let write_mb_per_task: f64 = line.kv(5, "write_mb")?;
                let kind = match line.tokens[6] {
                    "stateless" => StageKind::Stateless {
                        read_spread: line.kv(7, "read_spread")?,
                        write_spread: line.kv(8, "write_spread")?,
                    },
                    "stateful" => StageKind::Stateful {
                        exchange_gb: line.kv(7, "exchange_gb")?,
                    },
                    other => {
                        return Err(
                            line.err(format!("expected `stateless` or `stateful`, got `{other}`"))
                        )
                    }
                };
                let expected = match kind {
                    StageKind::Stateless { .. } => 9,
                    StageKind::Stateful { .. } => 8,
                };
                if line.tokens.len() != expected {
                    return Err(line.err("trailing tokens after stage declaration"));
                }
                stages.push(Stage {
                    name: sname,
                    tasks,
                    cpu_secs_per_task,
                    read_mb_per_task,
                    write_mb_per_task,
                    kind,
                });
                edges.push(Vec::new());
            }
            "edge" => {
                if line.tokens.len() != 5 || line.tokens[2] != "<-" {
                    return Err(line.err("expected `edge <to> <- <from> one-to-one|all-to-all`"));
                }
                let resolve = |n: &str| {
                    stages
                        .iter()
                        .position(|s| s.name == n)
                        .ok_or_else(|| line.err(format!("unknown stage `{n}`")))
                };
                let to = resolve(line.tokens[1])?;
                let from = resolve(line.tokens[3])?;
                let fan_in = match line.tokens[4] {
                    "one-to-one" => FanIn::OneToOne,
                    "all-to-all" => FanIn::AllToAll,
                    other => {
                        return Err(line.err(format!(
                            "expected `one-to-one` or `all-to-all`, got `{other}`"
                        )))
                    }
                };
                edges[to].push(StageEdge { from, fan_in });
            }
            other => return Err(line.err(format!("unknown declaration `{other}`"))),
        }
    }

    let name = name.ok_or(DslError::Parse {
        line: text.lines().count().max(1),
        message: "missing `workload <name>` header".into(),
    })?;
    let w = Workload { name, stages, edges };
    w.validate()?;
    Ok(w)
}
