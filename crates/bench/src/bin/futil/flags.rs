//! The one flag table every `futil` subcommand is parsed by.
//!
//! A row of [`FLAGS`] names a flag, its value (none for a switch), the
//! modes that take it, where it goes and its help line; [`MODES`] names
//! the invocations. From the two come [`parse`], the usage error for a
//! flag outside its modes, and the `--help` text with each mode's
//! synopsis.

use calyx_backend::ReportFormat;
use calyx_service::{JobDefaults, Session};
use std::process::exit;
use std::str::FromStr;

/// Compile mode, `futil <file>`: one of the mode bits a flag row sets.
pub const COMPILE: u8 = 1;
/// `futil <inputs...> --batch`.
pub const BATCH: u8 = 2;
/// `futil check`.
pub const CHECK: u8 = 4;
/// `futil build` and `futil plan`, which take the same flags.
pub const BUILD: u8 = 8;
/// `futil serve`.
pub const SERVE: u8 = 16;
/// The modes that compile jobs named by `-p`/`-b`.
const JOBS: u8 = COMPILE | BATCH | SERVE;

/// One way to invoke `futil`.
#[derive(Clone, Copy, Default)]
pub struct Mode {
    /// The subcommand word; `None` for compile mode and `--batch`.
    pub word: Option<&'static str>,
    /// Which flags it takes: the rows that set this bit.
    pub bit: u8,
    /// How errors name it.
    name: &'static str,
    /// The synopsis before the optional flags; a flag named here is not
    /// repeated after it.
    head: &'static str,
    /// The most positional inputs it takes.
    inputs: usize,
}

/// Every mode, in the order `--help` shows them.
#[rustfmt::skip]
const MODES: &[Mode] = &[
    Mode { word: None,          bit: COMPILE, name: "`futil <file>`", head: "futil <file|->",                   inputs: 1 },
    Mode { word: None,          bit: BATCH,   name: "`--batch`",      head: "futil <inputs...> --batch",        inputs: usize::MAX },
    Mode { word: Some("check"), bit: CHECK,   name: "`futil check`",  head: "futil check <file|->",             inputs: 1 },
    Mode { word: Some("build"), bit: BUILD,   name: "`futil build`",  head: "futil build <file|-> --to <state>", inputs: 1 },
    Mode { word: Some("plan"),  bit: BUILD,   name: "`futil plan`",   head: "futil plan <file|-> --to <state>",  inputs: 1 },
    Mode { word: Some("serve"), bit: SERVE,   name: "`futil serve`",  head: "futil serve",                      inputs: 0 },
];

/// Where a flag goes: record it and its value (empty for a switch); a
/// value that does not parse sets [`Args::invalid`].
type Setter = fn(&mut Args, String);

/// One flag: its synopsis (the spelling, then the value it takes if
/// any), the modes that take it, where it goes, and its help line.
struct Flag {
    synopsis: &'static str,
    modes: u8,
    set: Setter,
    help: &'static str,
    /// A flag this one means nothing without, in the modes that take both.
    requires: Option<&'static str>,
}

const fn flag(synopsis: &'static str, modes: u8, set: Setter, help: &'static str) -> Flag {
    Flag {
        synopsis,
        modes,
        set,
        help,
        requires: None,
    }
}

impl Flag {
    fn name(&self) -> &'static str {
        self.synopsis.split(' ').next().unwrap_or_default()
    }

    fn value(&self) -> Option<&'static str> {
        self.synopsis.split_once(' ').map(|(_, value)| value)
    }
}

/// Every flag, in the order `--help` lists them. `-h`/`--help` is taken
/// by every mode and is not a row.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("-f <frontend>", JOBS | CHECK, |a, v| a.defaults.frontend = Some(v),
        "frontend (default: inferred from the file extension, falling back to calyx); run \
         --list-frontends for descriptions and options"),
    flag("--fopt key=value", JOBS | CHECK | BUILD, |a, v| match v.split_once('=') {
            Some((key, value)) if !key.is_empty() => a.defaults.fopts.push((key.into(), value.into())),
            _ => a.invalid = true,
        },
        "frontend/generator parameter (repeatable); run --list-frontends for each frontend's keys"),
    flag("-p <pass-or-alias>", JOBS, |a, v| a.defaults.pipeline.get_or_insert_with(Vec::new).push(v),
        "append a pass or pipeline alias to the pipeline (repeatable; default: the backend's \
         required pipeline). Run --list-passes for the full registry."),
    flag("-b <backend>", JOBS, |a, v| a.defaults.backend = v,
        "backend (default: calyx); run --list-backends for descriptions and required pipelines"),
    flag("-o <file>", COMPILE | BUILD, |a, v| a.out = Some(v),
        "write the output to <file>, atomically (default: stdout); --batch writes with \
         --out-dir instead"),
    flag("--cycles N", JOBS | BUILD, |a, v| a.defaults.cycles = a.number(&v).unwrap_or_default(),
        "simulation budget (default 1_000_000)"),
    flag("--format text|json", JOBS | CHECK | BUILD, |a, v| match v.as_str() {
            "text" => a.defaults.format = ReportFormat::Text,
            "json" => a.defaults.format = ReportFormat::Json,
            _ => a.invalid = true,
        },
        "report format for report-style backends, the --batch summary and futil check"),
    flag("--check", COMPILE, |a, _| a.check = true,
        "run every lint before compiling; diagnostics go to stderr and error-severity findings \
         stop the run"),
    Flag { requires: Some("--check"), ..flag("--deny warnings|<lint>", COMPILE | CHECK,
        |a, v| match v.as_str() {
            "warnings" => a.deny_warnings = true,
            _ => a.deny.push(v),
        },
        "treat warning diagnostics as fatal; with a lint name (futil check), promote that \
         lint's findings to errors (repeatable)") },
    flag("--allow <lint>", CHECK, |a, v| a.allow.push(v),
        "drop one lint's findings entirely (repeatable)"),
    flag("--explain <CODE>", CHECK, |a, v| a.explain = Some(v),
        "print a lint's long-form documentation and exit (a code or a name)"),
    flag("--time", COMPILE | BATCH, |a, _| a.time = true,
        "report per-pass wall-clock timings on stderr; simulation backends also report total \
         cycles, wall time, and cycles/sec"),
    flag("--stats", COMPILE | BATCH, |a, _| a.stats = true,
        "report per-pass analysis-cache statistics (hits/misses/recomputes) on stderr, plus \
         the simulation throughput line"),
    flag("--batch", BATCH, |_, _| {},
        "compile every positional input concurrently: plain inputs are one job each, `.jsonl` \
         arguments are JSON-lines job manifests (`-` reads a manifest from stdin), other flags \
         become per-job defaults. Prints a summary (--format json for the machine-readable \
         one) and exits 1 if any job failed."),
    flag("--jobs N", BATCH | SERVE, |a, v| a.jobs = a.number(&v),
        "worker threads (default: available parallelism)"),
    flag("--fail-fast", BATCH, |a, _| a.fail_fast = true,
        "abort a batch at the first failing job"),
    flag("--timeout MS", BATCH | SERVE, |a, v| a.defaults.timeout_ms = a.number(&v),
        "per-job wall-clock budget in milliseconds"),
    flag("--out-dir DIR", BATCH | SERVE, |a, v| a.defaults.out_dir = Some(v),
        "write each job's output to DIR/<name>.<ext>"),
    flag("--to <state>", BUILD, |a, v| a.to = Some(v),
        "goal state; run `futil build --list-states` for the choices"),
    flag("--from <state>", BUILD, |a, v| a.from = Some(v),
        "start state (default: inferred from the input's file extension)"),
    flag("--cache-dir DIR", BUILD, |a, v| a.cache_dir = Some(v),
        "artifact cache of futil build (default: .futil-cache; futil plan ignores it)"),
    flag("--no-cache", BUILD, |a, _| a.no_cache = true,
        "run every build step; neither read nor write the artifact cache"),
    flag("--socket PATH", SERVE, |a, v| a.socket = Some(v),
        "serve on a unix socket instead of stdin/stdout"),
    Flag { requires: Some("--socket"), ..flag("--max-connections N", SERVE,
        |a, v| a.max_connections = a.number(&v), "close the socket after N connections") },
    flag("--list-states", BUILD, |a, _| a.list = a.list.or(Some("states")),
        "list plan states, then exit"),
    flag("--list-ops", BUILD, |a, _| a.list = a.list.or(Some("ops")),
        "list plan ops, then exit"),
    flag("--list-frontends", COMPILE | BATCH, |a, _| a.list = a.list.or(Some("frontends")),
        "list registered frontends, then exit"),
    flag("--list-passes", COMPILE | BATCH, |a, _| a.list = a.list.or(Some("passes")),
        "list registered passes and aliases, then exit"),
    flag("--list-backends", COMPILE | BATCH, |a, _| a.list = a.list.or(Some("backends")),
        "list registered backends, then exit"),
    flag("--list-lints", COMPILE | BATCH | CHECK, |a, _| a.list = a.list.or(Some("lints")),
        "list registered lints, then exit"),
];

/// What one invocation said: the mode, the positional inputs, the
/// defaults of every job it runs, and the flags only some modes read.
#[derive(Default)]
pub struct Args {
    /// The mode the invocation selected.
    pub mode: Mode,
    /// Positional inputs (`-` is stdin), at most the mode's count.
    pub inputs: Vec<String>,
    /// The job flags: batch and serve use them as is; the single-shot
    /// modes run one job under them.
    pub defaults: JobDefaults,
    pub jobs: Option<usize>,
    pub out: Option<String>,
    pub check: bool,
    pub deny_warnings: bool,
    /// `--deny <lint>`.
    pub deny: Vec<String>,
    pub allow: Vec<String>,
    pub explain: Option<String>,
    pub time: bool,
    pub stats: bool,
    pub fail_fast: bool,
    pub to: Option<String>,
    pub from: Option<String>,
    pub cache_dir: Option<String>,
    pub no_cache: bool,
    pub socket: Option<String>,
    pub max_connections: Option<usize>,
    /// The registry the first `--list-<kind>` flag named.
    pub list: Option<&'static str>,
    /// Whether the value of the flag just read did not parse.
    invalid: bool,
}

impl Args {
    /// The one input of a single-input mode.
    pub fn file(&mut self, session: &Session) -> String {
        match self.inputs.pop() {
            Some(file) => file,
            None => usage_error(session, "no input file"),
        }
    }

    /// `value` as a number; one that is not marks the flag invalid.
    fn number<T: FromStr>(&mut self, value: &str) -> Option<T> {
        let number = value.parse().ok();
        self.invalid |= number.is_none();
        number
    }
}

/// Parse the command line after the program name. Help exits 0; every
/// mistake in the invocation is a usage error.
pub fn parse(session: &Session, argv: Vec<String>) -> Args {
    let word = argv.first().map(String::as_str);
    let mode = match MODES.iter().find(|m| m.word.is_some() && m.word == word) {
        Some(mode) => mode,
        None if argv.iter().any(|a| a == "--batch") => &MODES[1],
        None => &MODES[0],
    };
    let mut args = Args {
        mode: *mode,
        ..Args::default()
    };
    let mut given: Vec<&str> = Vec::new();
    let mut it = argv.into_iter().skip(usize::from(mode.word.is_some()));
    while let Some(arg) = it.next() {
        if arg == "-h" || arg == "--help" {
            // Help is not an error: print to stdout and exit 0.
            print!("{}", usage(session));
            exit(0);
        }
        let Some(flag) = FLAGS.iter().find(|f| f.name() == arg) else {
            // `-` is stdin, not a flag.
            if arg == "-" || !arg.starts_with('-') {
                args.inputs.push(arg);
                continue;
            }
            usage_error(
                session,
                &format!("unexpected argument `{arg}` for {}", mode.name),
            );
        };
        if flag.modes & mode.bit == 0 {
            let takers: Vec<&str> = MODES
                .iter()
                .filter(|m| flag.modes & m.bit != 0)
                .map(|m| m.name)
                .collect();
            usage_error(
                session,
                &format!(
                    "`{arg}` is not a flag of {}; uses of it require {}",
                    mode.name,
                    takers.join(" or ")
                ),
            );
        }
        let value = match flag.value() {
            Some(_) => it.next(),
            None => Some(String::new()),
        };
        match value {
            Some(value) => (flag.set)(&mut args, value),
            None => args.invalid = true,
        }
        if args.invalid {
            let expected = flag.value().unwrap_or_default();
            usage_error(session, &format!("`{arg}` expects `{expected}`"));
        }
        given.push(flag.name());
    }
    if args.inputs.len() > mode.inputs {
        usage_error(
            session,
            &match mode.bit {
                COMPILE => "multiple inputs require `--batch`".to_string(),
                _ => format!(
                    "unexpected argument `{}` for {}",
                    args.inputs[mode.inputs], mode.name
                ),
            },
        );
    }
    // A flag is meaningless without the one it requires, where that one
    // could have been given.
    let takes = |name| {
        FLAGS
            .iter()
            .any(|f| f.name() == name && f.modes & mode.bit != 0)
    };
    for flag in FLAGS.iter().filter(|f| given.contains(&f.name())) {
        if let Some(needed) = flag.requires.filter(|&n| takes(n) && !given.contains(&n)) {
            usage_error(session, &format!("`{}` requires `{needed}`", flag.name()));
        }
    }
    args
}

/// Where help lines start.
const HELP_COLUMN: usize = 22;

/// The usage text: each mode's synopsis, then every flag's help line,
/// with the `-f`/`-b` choices derived from the registries.
fn usage(session: &Session) -> String {
    let frontends: Vec<&str> = session
        .frontends
        .frontends()
        .iter()
        .map(|f| f.name)
        .collect();
    let backends: Vec<&str> = session.backends.backends().iter().map(|b| b.name).collect();
    let mut text = String::new();
    for (i, mode) in MODES.iter().enumerate() {
        let head = format!("{} {}", if i == 0 { "usage:" } else { "      " }, mode.head);
        let optional: Vec<String> = FLAGS
            .iter()
            .filter(|f| f.modes & mode.bit != 0 && !mode.head.split(' ').any(|w| w == f.name()))
            .map(|f| format!("[{}]", f.synopsis))
            .collect();
        wrap(
            &mut text,
            head,
            &" ".repeat(13),
            optional.iter().map(String::as_str),
        );
    }
    let indent = " ".repeat(HELP_COLUMN);
    let rows = FLAGS.iter().map(|f| (f.synopsis, f.help));
    for (synopsis, help) in rows.chain([("-h, --help", "print this message and exit")]) {
        let left = format!("  {synopsis}")
            .replace("<frontend>", &frontends.join("|"))
            .replace("<backend>", &backends.join("|"));
        let head = if left.len() + 1 < HELP_COLUMN {
            format!("{left:HELP_COLUMN$}")
        } else {
            text.push_str(&left);
            text.push('\n');
            indent.clone()
        };
        wrap(&mut text, head, &indent, help.split(' '));
    }
    text
}

/// Append `words` to `text` after `head`, one space apart, starting a
/// new line at `indent` before a word would pass column 78.
fn wrap<'a>(text: &mut String, head: String, indent: &str, words: impl Iterator<Item = &'a str>) {
    let mut line = head;
    for word in words {
        if line.len() > indent.len() && line.len() + 1 + word.len() > 78 {
            text.push_str(&line);
            text.push('\n');
            line = indent.to_string();
        } else if !line.ends_with(' ') {
            line.push(' ');
        }
        line.push_str(word);
    }
    text.push_str(&line);
    text.push('\n');
}

/// A *user error* in the invocation (not in the input program): print the
/// message and the usage text to stderr and exit 2.
pub fn usage_error(session: &Session, msg: &str) -> ! {
    eprintln!("futil: {msg}");
    eprint!("{}", usage(session));
    exit(2);
}
