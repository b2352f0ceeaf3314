//! Shared scenario assembly for the `repro` binary (`src/bin/repro.rs`),
//! which regenerates and checks every figure of the paper's evaluation
//! (§IV–§V), the sweep binaries, and the Table I Criterion benches
//! (`benches/`). See `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenarios;

use std::io::Write;
use std::path::Path;

/// Declarative command-line spec for a sweep/figure binary: what it is,
/// which bare flags it takes and which `--key=value` options. The
/// built-in flags `--smoke` (fast deterministic CI gate), `--bless`
/// (rewrite the golden) and `--help` are accepted by every binary and
/// need not be listed.
pub struct CliSpec {
    /// Binary name, as shown in the usage line.
    pub bin: &'static str,
    /// One-line description of what the binary produces.
    pub about: &'static str,
    /// Extra bare flags beyond the built-ins, as `(name, help)`.
    pub flags: &'static [(&'static str, &'static str)],
    /// `--name=value` options, as `(name, help)`.
    pub options: &'static [(&'static str, &'static str)],
}

/// Flags every bench binary accepts without declaring them.
const BUILTIN_FLAGS: [(&str, &str); 3] = [
    (
        "smoke",
        "run the fast deterministic subset and diff the golden",
    ),
    ("bless", "rewrite the golden instead of diffing against it"),
    ("help", "print this usage text and exit"),
];

impl CliSpec {
    /// Renders the usage text shown by `--help` and on a bad flag.
    pub fn usage(&self) -> String {
        let mut out = format!(
            "{} — {}\n\nUSAGE:\n    {} [FLAGS]\n",
            self.bin, self.about, self.bin
        );
        out.push_str("\nFLAGS:\n");
        for (name, help) in BUILTIN_FLAGS.iter().chain(self.flags) {
            out.push_str(&format!("    --{name:<18} {help}\n"));
        }
        if !self.options.is_empty() {
            out.push_str("\nOPTIONS:\n");
            for (name, help) in self.options {
                let key = format!("{name}=<value>");
                out.push_str(&format!("    --{key:<18} {help}\n"));
            }
        }
        out
    }

    fn knows_flag(&self, name: &str) -> bool {
        BUILTIN_FLAGS
            .iter()
            .chain(self.flags)
            .any(|(n, _)| *n == name)
    }

    fn knows_option(&self, name: &str) -> bool {
        self.options.iter().any(|(n, _)| *n == name)
    }
}

/// Parsed command-line arguments of a sweep/figure binary, validated
/// against its [`CliSpec`]: unknown flags are an error with usage text
/// rather than a silent no-op.
#[derive(Debug)]
pub struct BenchArgs {
    args: Vec<String>,
}

impl BenchArgs {
    /// Captures and validates the process arguments. Prints usage and
    /// exits 0 on `--help`; prints the error plus usage to stderr and
    /// exits 2 on an unknown or malformed argument.
    pub fn parse_with(spec: &CliSpec) -> Self {
        match BenchArgs::from_vec(spec, std::env::args().skip(1).collect()) {
            Ok(args) => {
                if args.flag("help") {
                    print!("{}", spec.usage());
                    std::process::exit(0);
                }
                args
            }
            Err(msg) => {
                eprint!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The testable parse core: validates `args` against `spec` without
    /// touching the process environment. `Err` carries the full message
    /// (offending argument plus usage text).
    pub fn from_vec(spec: &CliSpec, args: Vec<String>) -> Result<Self, String> {
        for arg in &args {
            let Some(body) = arg.strip_prefix("--") else {
                return Err(format!(
                    "unexpected positional argument {arg:?}\n\n{}",
                    spec.usage()
                ));
            };
            match body.split_once('=') {
                Some((name, _)) if spec.knows_option(name) => {}
                Some((name, _)) => {
                    return Err(format!("unknown option --{name}\n\n{}", spec.usage()));
                }
                None if spec.knows_flag(body) => {}
                None if spec.knows_option(body) => {
                    return Err(format!(
                        "option --{body} needs a value: --{body}=<value>\n\n{}",
                        spec.usage()
                    ));
                }
                None => {
                    return Err(format!("unknown flag --{body}\n\n{}", spec.usage()));
                }
            }
        }
        Ok(BenchArgs { args })
    }

    /// True when `--smoke` was passed: run the fast deterministic subset
    /// and byte-compare against the checked-in golden.
    pub fn smoke(&self) -> bool {
        self.flag("smoke")
    }

    /// True when `--bless` was passed: rewrite the golden instead of
    /// diffing against it.
    pub fn bless(&self) -> bool {
        self.flag("bless")
    }

    /// True when `--<name>` was passed as a bare flag.
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == &format!("--{name}"))
    }

    /// The value of a `--<name>=<value>` option, if present.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        let prefix = format!("--{name}=");
        self.args
            .iter()
            .find_map(|a| a.strip_prefix(prefix.as_str()))
    }

    /// Parses `--<name>=<value>` into `T`, falling back to `default`
    /// when the option is absent.
    ///
    /// # Panics
    ///
    /// Panics with a readable message when the value does not parse —
    /// these are CLI tools, and a bad flag should fail loudly.
    pub fn value_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value_of(name) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("--{name} could not parse {v:?}")),
            None => default,
        }
    }
}

/// Byte-compares `report` against the golden at `results/<name>`; with
/// `bless` the golden is (re)written instead. On divergence both texts
/// are printed and the process exits non-zero — this is the CI
/// determinism gate every `--smoke` run goes through.
pub fn golden_gate(label: &str, name: &str, report: &str, bless: bool) {
    let path = Path::new("results").join(name);
    if bless {
        std::fs::create_dir_all("results").expect("create results/");
        std::fs::write(&path, report).expect("write golden");
        println!("[blessed {}]", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with `--smoke --bless` to create it",
            path.display()
        )
    });
    if report != golden {
        eprintln!("{label} smoke diverged from golden {}:", path.display());
        eprintln!("--- golden\n{golden}\n--- got\n{report}");
        std::process::exit(1);
    }
    println!("{label} smoke: report matches golden byte-for-byte");
}

/// Writes `rows` as CSV into `results/<name>` (creating the directory),
/// with a header line. Errors are reported but non-fatal so `repro`
/// still prints its stdout series.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let dir = Path::new("results");
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut f = std::fs::File::create(dir.join(name))?;
        writeln!(f, "{header}")?;
        for row in rows {
            writeln!(f, "{row}")?;
        }
        Ok(())
    };
    match write() {
        Ok(()) => eprintln!("[wrote results/{name}]"),
        Err(e) => eprintln!("[could not write results/{name}: {e}]"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: CliSpec = CliSpec {
        bin: "demo_sweep",
        about: "exercise the parser",
        flags: &[("full", "also run the slow points")],
        options: &[("fault-rate", "fraction of faulty sends")],
    };

    fn args(list: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::from_vec(&SPEC, list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn accepts_builtin_declared_and_empty() {
        assert!(args(&[]).is_ok());
        let a = args(&["--smoke", "--bless", "--full"]).unwrap();
        assert!(a.smoke() && a.bless() && a.flag("full"));
        assert!(!a.flag("help"));
    }

    #[test]
    fn parses_option_values() {
        let a = args(&["--fault-rate=0.25"]).unwrap();
        assert_eq!(a.value_of("fault-rate"), Some("0.25"));
        assert_eq!(a.value_or("fault-rate", 0.0), 0.25);
        assert_eq!(a.value_or("missing", 7u32), 7);
    }

    #[test]
    fn rejects_unknown_flag_with_usage() {
        let err = args(&["--smok"]).unwrap_err();
        assert!(err.starts_with("unknown flag --smok"), "{err}");
        assert!(err.contains("USAGE:"), "{err}");
        assert!(err.contains("--fault-rate=<value>"), "{err}");
    }

    #[test]
    fn rejects_unknown_option_and_positional() {
        let err = args(&["--faultrate=0.5"]).unwrap_err();
        assert!(err.starts_with("unknown option --faultrate"), "{err}");
        let err = args(&["smoke"]).unwrap_err();
        assert!(err.starts_with("unexpected positional"), "{err}");
    }

    #[test]
    fn option_used_as_bare_flag_asks_for_a_value() {
        let err = args(&["--fault-rate"]).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn usage_lists_builtins_and_declared() {
        let usage = SPEC.usage();
        for needle in ["--smoke", "--bless", "--help", "--full", "demo_sweep"] {
            assert!(usage.contains(needle), "{usage}");
        }
    }

    #[test]
    #[should_panic(expected = "could not parse")]
    fn bad_option_value_panics_readably() {
        let a = args(&["--fault-rate=banana"]).unwrap();
        let _: f64 = a.value_or("fault-rate", 0.0);
    }
}
