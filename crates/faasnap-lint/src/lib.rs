//! `faasnap-lint` — in-tree determinism and architecture linting.
//!
//! The reproduction's results are only trustworthy because every run is
//! deterministic: the byte-pinned Perfetto/Prometheus goldens and the
//! fleet-determinism property tests all assume no code path consults
//! wall-clock time, OS randomness, or hash-map iteration order. This
//! crate machine-checks those assumptions (plus the crate layering) so a
//! future perf PR cannot silently break them.
//!
//! Two depths. The **shallow** pass (`lint_workspace`) is the original
//! line lexer: comment/string-aware pattern rules over masked source.
//! The **deep** pass (`lint_workspace_deep`) additionally parses every
//! file into items ([`parse`]), links a workspace call graph
//! ([`callgraph`]), and runs the interprocedural passes ([`taint`]): a
//! wrapper that launders `SystemTime::now()` through two helpers into a
//! golden-emitting public fn is invisible to the line rules but is
//! exactly what `determinism-taint` reports, shortest chain included.
//!
//! Rules:
//!
//! | rule id | depth | what it flags |
//! |---|---|---|
//! | `no-wallclock` | shallow | `Instant::now` / `SystemTime` outside the criterion shim and the faasnap-obs self-profiler |
//! | `no-os-entropy` | shallow | `RandomState`, `thread_rng`-style OS randomness |
//! | `no-threads` | shallow | `thread::spawn` / `thread::sleep` |
//! | `no-unordered-iteration` | shallow | `HashMap` / `HashSet` (unspecified order) |
//! | `unwrap-budget` | shallow | non-test `unwrap()`/`expect(` count above [`UNWRAP_BUDGET`] |
//! | `layering` | shallow | crate-DAG violations (see [`layering::check_layering`]) |
//! | `missing-forbid-unsafe` | shallow | `sim-*`/`faasnap*` crate root without `#![forbid(unsafe_code)]` |
//! | `malformed-allow` | shallow | an allow directive with no reason or unknown rule id |
//! | `no-env-read` | deep | `env::var*` ambient reads in non-harness code |
//! | `determinism-taint` | deep | public fn reaching an unsanctioned nondeterminism source through calls |
//! | `panic-path` | deep | non-test panic sites (`panic!` family, `.expect(`, slice indexing) above [`PANIC_PATH_BUDGET`] |
//! | `float-determinism` | deep | float-keyed maps, `partial_cmp` on golden-reaching paths |
//! | `dead-allow` | deep | an allow directive that no longer suppresses anything |
//!
//! A finding is suppressed with a line comment holding the `faasnap-lint`
//! marker, a colon, and `allow(rule-id, reason)` — the reason is
//! mandatory, and the directive covers its own line plus the next one.
//! Run via `cargo run -p faasnap-lint` or `faasnapd lint [--deep]
//! [--json]`; the repo gate (`scripts/check.sh`) fails on any diagnostic
//! at either depth.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod diag;
pub mod layering;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod taint;
pub mod walk;

use std::fs;
use std::path::Path;

pub use diag::Diagnostic;
pub use rules::{lint_source, FileCtx, FileLint, RULE_IDS};
pub use walk::find_workspace_root;

/// Ratchet cap on `unwrap()`/`expect(` call sites in non-test library
/// code. The gate fails when the count exceeds this; when a cleanup PR
/// lowers the real count, lower the cap with it so it never climbs back.
/// Lowered 18 → 16 when the JSON parser stopped decoding with `expect`.
pub const UNWRAP_BUDGET: u64 = 16;

/// Ratchet cap on non-test panic paths: `panic!`-family macros,
/// `.expect(`, and slice-index sites in non-harness, non-`cfg(test)`
/// code. Seeded at the measured baseline when the deep pass landed;
/// ratchet it down as panic paths are converted to `Result`s. Raised
/// 356 → 361 with the snapshot-branching layer (COW overlay range
/// asserts and the fork orchestration paths); lowered to 358 when the
/// `mincore` scan stopped indexing its `seen` bitmap per page, to 351
/// when the JSON parser stopped slicing and the fleet stopped indexing
/// an arrival table per event, and to 343 when the restore runtime lost
/// its panicking entry-point wrappers and its per-site copies of the
/// read-completion and retry code.
pub const PANIC_PATH_BUDGET: u64 = 343;

/// One source file handed to the deep linter. [`lint_sources_deep`]
/// takes these directly so tests and fixtures can lint in-memory
/// snippets with full call-graph resolution, no filesystem involved.
#[derive(Clone, Debug)]
pub struct SourceUnit {
    /// Workspace-relative path, used in diagnostics.
    pub rel: String,
    /// Owning crate name (layering + resolution).
    pub crate_name: String,
    /// True for bench/test/example harness files (relaxed rules).
    pub is_harness: bool,
    /// True for the crate's `lib.rs`/`main.rs` (forbid-unsafe check).
    pub is_crate_root: bool,
    /// Full file contents.
    pub source: String,
}

/// Result of linting the whole workspace.
#[derive(Clone, Debug)]
pub struct Report {
    /// All findings, sorted and deduplicated.
    pub diagnostics: Vec<Diagnostic>,
    /// Non-test `unwrap()`/`expect(` call sites found.
    pub unwrap_count: u64,
    /// The cap the count is checked against ([`UNWRAP_BUDGET`]).
    pub unwrap_budget: u64,
    /// Non-test panic-path sites (deep mode only; 0 in shallow mode).
    pub panic_path_count: u64,
    /// The cap for the above ([`PANIC_PATH_BUDGET`]).
    pub panic_path_budget: u64,
    /// True when the interprocedural passes ran.
    pub deep: bool,
}

impl Report {
    /// True if the gate should pass.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Machine-readable rendering (`faasnapd lint --json`). Stable,
    /// hand-rolled (this crate depends on nothing but std), newline
    /// terminated, keys in fixed order — safe to pin as a golden.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"faasnap-lint/v1\",\n");
        out.push_str(&format!(
            "  \"mode\": \"{}\",\n",
            if self.deep { "deep" } else { "shallow" }
        ));
        out.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        out.push_str(&format!(
            "  \"unwrap\": {{ \"count\": {}, \"budget\": {} }},\n",
            self.unwrap_count, self.unwrap_budget
        ));
        out.push_str(&format!(
            "  \"panic_path\": {{ \"count\": {}, \"budget\": {} }},\n",
            self.panic_path_count, self.panic_path_budget
        ));
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{ \"path\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\" }}",
                diag::json_escape(&d.path),
                d.line,
                d.rule,
                diag::json_escape(&d.message)
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// True for crates whose root must carry `#![forbid(unsafe_code)]`.
fn requires_forbid_unsafe(crate_name: &str) -> bool {
    crate_name.starts_with("sim-") || crate_name == "faasnap" || crate_name.starts_with("faasnap-")
}

/// Reads the workspace into [`SourceUnit`]s.
fn load_units(root: &Path) -> Result<(Vec<SourceUnit>, Vec<layering::Manifest>), String> {
    let ws = walk::discover(root)?;
    let mut units = Vec::with_capacity(ws.files.len());
    for f in &ws.files {
        let source = fs::read_to_string(&f.abs).map_err(|e| format!("reading {}: {e}", f.rel))?;
        units.push(SourceUnit {
            rel: f.rel.clone(),
            crate_name: f.crate_name.clone(),
            is_harness: f.is_harness,
            is_crate_root: f.is_crate_root,
            source,
        });
    }
    Ok((units, ws.manifests))
}

/// Lints the workspace rooted at `root`: layering over the crate DAG,
/// text rules over every source file, the unwrap ratchet, and the
/// forbid-unsafe check on crate roots.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let (units, manifests) = load_units(root)?;
    Ok(lint_sources(&units, &manifests, false))
}

/// [`lint_workspace`] plus the interprocedural passes: parse, call
/// graph, determinism taint, env/panic/float rules, dead-allow.
pub fn lint_workspace_deep(root: &Path) -> Result<Report, String> {
    let (units, manifests) = load_units(root)?;
    Ok(lint_sources(&units, &manifests, true))
}

/// Deep-lints in-memory sources (no layering input). Fixture tests and
/// the stability proptest drive the analyzer through this.
pub fn lint_sources_deep(units: &[SourceUnit]) -> Report {
    lint_sources(units, &[], true)
}

/// Shared driver behind both depths. Lexes each file once; the deep
/// branch reuses the same masked text for parsing so the two depths can
/// never disagree about what is code and what is comment. Units are
/// analyzed in path order regardless of how the caller discovered them,
/// so the report — including taint tie-breaks — is byte-stable under
/// any file-discovery order.
fn lint_sources(units: &[SourceUnit], manifests: &[layering::Manifest], deep: bool) -> Report {
    let units: Vec<&SourceUnit> = {
        let mut v: Vec<&SourceUnit> = units.iter().collect();
        v.sort_by(|a, b| a.rel.cmp(&b.rel));
        v
    };
    let mut diagnostics = layering::check_layering(manifests);
    let mut unwrap_count = 0u64;
    let mut panic_path_count = 0u64;

    let mut scanned_masked: Vec<Vec<String>> = Vec::with_capacity(units.len());
    let mut allows: Vec<Vec<rules::AllowRecord>> = Vec::with_capacity(units.len());
    let mut shallow_diags: Vec<Diagnostic> = Vec::new();

    for u in &units {
        let scanned = lexer::scan(&u.source);
        let ctx = FileCtx {
            path: &u.rel,
            crate_name: &u.crate_name,
            is_harness: u.is_harness,
        };
        let lint = rules::lint_scanned(&ctx, &scanned);
        unwrap_count += lint.unwrap_sites;
        shallow_diags.extend(lint.diagnostics);
        if u.is_crate_root && requires_forbid_unsafe(&u.crate_name) && !lint.has_forbid_unsafe {
            diagnostics.push(Diagnostic::new(
                &u.rel,
                1,
                "missing-forbid-unsafe",
                "crate root must carry #![forbid(unsafe_code)] (the workspace is unsafe-free; \
                 keep it that way)",
            ));
        }
        allows.push(lint.allows);
        scanned_masked.push(scanned.masked_lines);
    }

    if deep {
        let files: Vec<callgraph::FileUnit> = units
            .iter()
            .enumerate()
            .map(|(i, u)| callgraph::FileUnit {
                rel: u.rel.clone(),
                crate_name: u.crate_name.clone(),
                is_harness: u.is_harness,
                parsed: parse::parse_file(&scanned_masked[i]),
            })
            .collect();
        let deps = callgraph::CrateDeps::from_manifests(manifests);
        let findings =
            taint::deep_passes(&files, &scanned_masked, &mut allows, &shallow_diags, &deps);
        panic_path_count = findings.panic_sites;
        diagnostics.extend(findings.diagnostics);
        if panic_path_count > PANIC_PATH_BUDGET {
            diagnostics.push(Diagnostic::new(
                "Cargo.toml",
                1,
                "panic-path",
                format!(
                    "{panic_path_count} non-test panic paths (panic!-family, .expect(, slice \
                     indexing) exceed the budget of {PANIC_PATH_BUDGET}; return a Result, or \
                     consciously raise PANIC_PATH_BUDGET in crates/faasnap-lint/src/lib.rs"
                ),
            ));
        }
    }

    diagnostics.extend(shallow_diags);

    if unwrap_count > UNWRAP_BUDGET {
        diagnostics.push(Diagnostic::new(
            "Cargo.toml",
            1,
            "unwrap-budget",
            format!(
                "{unwrap_count} non-test unwrap()/expect() call sites exceed the budget of \
                 {UNWRAP_BUDGET}; handle the error, or consciously raise UNWRAP_BUDGET in \
                 crates/faasnap-lint/src/lib.rs"
            ),
        ));
    }

    diagnostics.sort();
    diagnostics.dedup();
    Report {
        diagnostics,
        unwrap_count,
        unwrap_budget: UNWRAP_BUDGET,
        panic_path_count,
        panic_path_budget: PANIC_PATH_BUDGET,
        deep,
    }
}
