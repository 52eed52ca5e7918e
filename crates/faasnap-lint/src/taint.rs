//! The deep passes: interprocedural determinism taint plus the AST rules
//! that ride the same parse (`no-env-read`, `panic-path`,
//! `float-determinism`, `dead-allow`).
//!
//! The line rules catch a nondeterminism source *at the call site*; they
//! cannot catch a helper that wraps `SystemTime::now()` and is then
//! called from a golden-emitting path. The taint pass closes that hole:
//!
//! * **Sources** are exactly the sites the line rules (plus the deep
//!   `no-env-read` rule) flag — wall-clock, OS entropy, thread spawns,
//!   unordered `HashMap`/`HashSet` iteration, ambient env reads. A site
//!   sanctioned by an `allow(rule-id, reason)` directive, or by a
//!   crate-level carve-out (the faasnap-obs `wallclock`-feature
//!   self-profiler), seeds no taint: the allow is an argued claim that
//!   nondeterminism never escapes.
//! * **Propagation** walks the reverse call graph from each source's
//!   enclosing function. Every public, non-test function reached at
//!   distance ≥ 1 is reported with its *shortest* source-to-caller
//!   chain — the laundering path the line lexer cannot see.
//!
//! Conservatism: unresolvable calls over-link (see [`crate::callgraph`]),
//! so taint over-propagates rather than under-propagates. Suppress a
//! false positive with `allow(determinism-taint, reason)` at the flagged
//! function, or — better — with an argued allow at the source, which
//! un-seeds every chain through it.

use std::collections::BTreeMap;

use crate::callgraph::{self, CallSite, CrateDeps, FileUnit, Graph};
use crate::diag::Diagnostic;
use crate::rules::{cfg_test_lines, consume_allow, count_matches, AllowRecord};

/// Ambient-environment read patterns (the `no-env-read` sources).
/// `env::args`/`current_dir` are CLI inputs, not ambient state, and stay
/// legal; `env::var*` makes behavior depend on invisible machine state.
const ENV_PATTERNS: &[&str] = &["env::var", "env::var_os", "env::vars", "env::vars_os"];

/// Macros whose expansion is an unconditional panic.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Map types whose key type position is checked for floats.
const MAP_TYPES: &[&str] = &[
    "BTreeMap", "BTreeSet", "HashMap", "HashSet", "DetMap", "DetSet",
];

/// Everything the deep passes produce for the final report.
#[derive(Clone, Debug, Default)]
pub struct DeepFindings {
    /// Taint, env, float, panic-budget, and dead-allow diagnostics.
    pub diagnostics: Vec<Diagnostic>,
    /// Non-test panic-path sites (`panic!`-family macros, `.expect(`,
    /// slice indexing) — the `panic-path` budget input.
    pub panic_sites: u64,
}

/// One taint seed: a nondeterminism source site inside a function.
#[derive(Clone, Debug)]
struct Seed {
    node: usize,
    rule: String,
    path: String,
    line: u32,
}

/// Runs every deep pass. `lints[i]`/`scanned[i]` must correspond to
/// `files[i]`; allow records are marked used as passes consume them, and
/// whatever stays unused afterwards becomes a `dead-allow` diagnostic.
pub fn deep_passes(
    files: &[FileUnit],
    scanned_masked: &[Vec<String>],
    allows: &mut [Vec<AllowRecord>],
    shallow_diags: &[Diagnostic],
    deps: &CrateDeps,
) -> DeepFindings {
    let mut findings = DeepFindings::default();
    let graph = callgraph::build(files, deps);

    // Index nodes by (file, item) for seed lookup.
    let mut node_of: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (n, node) in graph.nodes.iter().enumerate() {
        node_of.insert((node.file, node.item), n);
    }
    let file_by_rel: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.rel.as_str(), i))
        .collect();

    let mut seeds: Vec<Seed> = Vec::new();

    // Pass 1: env reads (deep-only line rule; also taint sources).
    for (fi, file) in files.iter().enumerate() {
        if file.is_harness {
            continue;
        }
        for (idx, mline) in scanned_masked[fi].iter().enumerate() {
            let line = idx as u32 + 1;
            for pat in ENV_PATTERNS {
                if count_matches(mline, pat) == 0 {
                    continue;
                }
                if consume_allow(&mut allows[fi], "no-env-read", line) {
                    continue;
                }
                findings.diagnostics.push(Diagnostic::new(
                    &file.rel,
                    line,
                    "no-env-read",
                    format!(
                        "ambient environment read `{pat}` makes behavior depend on invisible \
                         machine state; take configuration as an explicit argument"
                    ),
                ));
                if let Some(item) = file.parsed.fn_covering_line(line) {
                    if let Some(&node) = node_of.get(&(fi, item)) {
                        seeds.push(Seed {
                            node,
                            rule: "no-env-read".to_string(),
                            path: file.rel.clone(),
                            line,
                        });
                    }
                }
            }
        }
    }

    // Pass 2: seeds from the shallow determinism findings. A finding
    // exists exactly where no allow and no crate carve-out sanctions the
    // site, which is precisely the taint-seeding condition.
    for d in shallow_diags {
        if !matches!(
            d.rule,
            "no-wallclock" | "no-os-entropy" | "no-threads" | "no-unordered-iteration"
        ) {
            continue;
        }
        let Some(&fi) = file_by_rel.get(d.path.as_str()) else {
            continue;
        };
        if let Some(item) = files[fi].parsed.fn_covering_line(d.line) {
            if let Some(&node) = node_of.get(&(fi, item)) {
                seeds.push(Seed {
                    node,
                    rule: d.rule.to_string(),
                    path: d.path.clone(),
                    line: d.line,
                });
            }
        }
    }

    // Pass 3: taint propagation — multi-source BFS over reverse edges,
    // shortest chain per node, deterministic by (seed order, node index).
    propagate(&graph, files, &seeds, allows, &mut findings.diagnostics);

    // Pass 4: panic-path budget + float-determinism, both per function.
    let pub_nodes: Vec<usize> = (0..graph.nodes.len())
        .filter(|&n| graph.nodes[n].is_pub && !graph.nodes[n].is_test)
        .collect();
    let from_public = graph.reachable_from(&pub_nodes);

    for (fi, file) in files.iter().enumerate() {
        if file.is_harness {
            continue;
        }
        let test_lines = cfg_test_lines(&scanned_masked[fi]);
        let in_test = |line: u32| test_lines.get(line as usize - 1).copied().unwrap_or(false);

        for (ii, item) in file.parsed.fns.iter().enumerate() {
            if item.in_cfg_test || item.body.is_empty() {
                continue;
            }
            let node = node_of.get(&(fi, ii)).copied();
            for site in callgraph::extract_sites(&file.parsed, item.body.clone()) {
                let panicky = match &site {
                    CallSite::Macro { name, .. } => PANIC_MACROS.contains(&name.as_str()),
                    CallSite::Method { name, .. } => name == "expect",
                    CallSite::Index { .. } => true,
                    _ => false,
                };
                if panicky && !consume_allow(&mut allows[fi], "panic-path", site.line()) {
                    findings.panic_sites += 1;
                }
                // Float comparison hazard: `.partial_cmp(` on a path a
                // public function can reach (golden output flows through
                // the public surface).
                if let CallSite::Method { name, line } = &site {
                    if name == "partial_cmp"
                        && node.is_some_and(|n| from_public[n] || graph.nodes[n].is_pub)
                        && !in_test(*line)
                        && !consume_allow(&mut allows[fi], "float-determinism", *line)
                    {
                        findings.diagnostics.push(Diagnostic::new(
                            &file.rel,
                            *line,
                            "float-determinism",
                            "partial_cmp on a golden-reaching path: NaN makes the comparison \
                             non-total and platform-dependent; use f64::total_cmp (or sort on \
                             an integer key)"
                                .to_string(),
                        ));
                    }
                }
            }
        }

        // Float map keys: a token-level type scan (`BTreeMap<f64, …>`
        // and friends, wherever they appear outside tests).
        let toks = &file.parsed.tokens;
        for w in 0..toks.len().saturating_sub(2) {
            let is_map = toks[w].kind.word().is_some_and(|t| MAP_TYPES.contains(&t));
            if is_map
                && toks[w + 1].kind.is('<')
                && toks[w + 2]
                    .kind
                    .word()
                    .is_some_and(|k| k == "f32" || k == "f64")
            {
                let line = toks[w].line;
                if !in_test(line) && !consume_allow(&mut allows[fi], "float-determinism", line) {
                    findings.diagnostics.push(Diagnostic::new(
                        &file.rel,
                        line,
                        "float-determinism",
                        "float-keyed collection: rounding differences reorder float keys \
                         across platforms; key on integer units (ns, pages, bytes) instead"
                            .to_string(),
                    ));
                }
            }
        }
    }

    // Pass 5: dead allows — directives that suppressed nothing anywhere.
    for (fi, file_allows) in allows.iter().enumerate() {
        for a in file_allows {
            if !a.used {
                findings.diagnostics.push(Diagnostic::new(
                    &files[fi].rel,
                    a.line,
                    "dead-allow",
                    format!(
                        "allow({}) no longer suppresses any finding; remove the directive so \
                         the ratchet stays honest",
                        a.rule
                    ),
                ));
            }
        }
    }

    findings.diagnostics.sort();
    findings.diagnostics.dedup();
    findings
}

/// Multi-source BFS from seeds over reverse call edges; reports each
/// public non-test function first reached at distance ≥ 1 with its
/// shortest chain back to the seed.
fn propagate(
    graph: &Graph,
    files: &[FileUnit],
    seeds: &[Seed],
    allows: &mut [Vec<AllowRecord>],
    out: &mut Vec<Diagnostic>,
) {
    const UNSEEN: usize = usize::MAX;
    // parent[n] points one step toward the seed; seed_of[n] indexes into
    // `seeds`. Seeds are processed in order, so ties resolve to the
    // earliest seed and the report is stable.
    let mut parent = vec![UNSEEN; graph.nodes.len()];
    let mut seed_of = vec![UNSEEN; graph.nodes.len()];
    let mut queue: Vec<usize> = Vec::new();
    for (si, s) in seeds.iter().enumerate() {
        if seed_of[s.node] == UNSEEN {
            seed_of[s.node] = si;
            parent[s.node] = s.node;
            queue.push(s.node);
        }
    }
    let mut head = 0usize;
    while head < queue.len() {
        let n = queue[head];
        head += 1;
        for &caller in &graph.callers[n] {
            if seed_of[caller] == UNSEEN {
                seed_of[caller] = seed_of[n];
                parent[caller] = n;
                queue.push(caller);
            }
        }
    }

    for n in 0..graph.nodes.len() {
        let node = &graph.nodes[n];
        if seed_of[n] == UNSEEN || parent[n] == n || !node.is_pub || node.is_test {
            continue;
        }
        let seed = &seeds[seed_of[n]];
        // Chain from this function down to the seed's function.
        let mut chain: Vec<String> = Vec::new();
        let mut cur = n;
        loop {
            chain.push(graph.label(cur));
            if parent[cur] == cur {
                break;
            }
            cur = parent[cur];
        }
        let file = &files[node.file];
        if consume_allow(&mut allows[node.file], "determinism-taint", node.line) {
            continue;
        }
        out.push(Diagnostic::new(
            &file.rel,
            node.line,
            "determinism-taint",
            format!(
                "public fn `{}` reaches a {} source ({}:{}) via {}; everything it emits can \
                 differ across runs — remove the source or argue an allow({}, ...) at it",
                graph.label(n),
                seed.rule,
                seed.path,
                seed.line,
                chain.join(" -> "),
                seed.rule,
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::parse::parse_file;
    use crate::rules::{lint_scanned, FileCtx};

    /// Runs the full deep pipeline over in-memory (path, crate, source)
    /// triples, the way `lint_workspace_deep` does.
    fn run(inputs: &[(&str, &str, &str)]) -> (Vec<Diagnostic>, DeepFindings) {
        let mut files = Vec::new();
        let mut masked = Vec::new();
        let mut allows = Vec::new();
        let mut shallow = Vec::new();
        for (rel, crate_name, src) in inputs {
            let scanned = lexer::scan(src);
            let ctx = FileCtx {
                path: rel,
                crate_name,
                is_harness: false,
            };
            let lint = lint_scanned(&ctx, &scanned);
            shallow.extend(lint.diagnostics.clone());
            allows.push(lint.allows);
            files.push(FileUnit {
                rel: rel.to_string(),
                crate_name: crate_name.to_string(),
                is_harness: false,
                parsed: parse_file(&scanned.masked_lines),
            });
            masked.push(scanned.masked_lines);
        }
        let findings = deep_passes(
            &files,
            &masked,
            &mut allows,
            &shallow,
            &CrateDeps::default(),
        );
        (shallow, findings)
    }

    fn rules_of(d: &[Diagnostic]) -> Vec<&str> {
        d.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn laundered_wallclock_taints_public_caller() {
        let src = "\
fn stamp_ms() -> u64 {\n    std::time::SystemTime::now(); 0\n}\n\
fn format_header() -> u64 { stamp_ms() }\n\
pub fn emit_golden() -> u64 { format_header() }\n";
        let (shallow, deep) = run(&[("crates/x/src/lib.rs", "sim-x", src)]);
        // The line rule fires at the site…
        assert!(rules_of(&shallow).contains(&"no-wallclock"));
        // …and the taint pass flags the public caller with the chain.
        let taint: Vec<&Diagnostic> = deep
            .diagnostics
            .iter()
            .filter(|d| d.rule == "determinism-taint")
            .collect();
        assert_eq!(taint.len(), 1);
        assert!(taint[0]
            .message
            .contains("emit_golden -> format_header -> stamp_ms"));
        assert_eq!(taint[0].line, 5);
    }

    #[test]
    fn allowed_source_seeds_nothing() {
        let src = "\
// faasnap-lint: allow(no-unordered-iteration, only the count escapes; order never observed)\n\
fn tally() -> usize { std::collections::HashMap::<u32, u32>::new().len() }\n\
pub fn report() -> usize { tally() }\n";
        let (shallow, deep) = run(&[("crates/x/src/lib.rs", "sim-x", src)]);
        assert!(shallow.is_empty());
        assert!(
            rules_of(&deep.diagnostics).is_empty(),
            "{:?}",
            deep.diagnostics
        );
    }

    #[test]
    fn env_read_flagged_and_tainting() {
        let src = "\
fn knob() -> bool { std::env::var(\"X\").is_ok() }\n\
pub fn decide() -> bool { knob() }\n";
        let (_, deep) = run(&[("crates/x/src/lib.rs", "sim-x", src)]);
        let rules = rules_of(&deep.diagnostics);
        assert!(rules.contains(&"no-env-read"));
        assert!(rules.contains(&"determinism-taint"));
    }

    #[test]
    fn taint_crosses_crates_through_method_calls() {
        let low = "\
pub struct Clock;\n\
impl Clock {\n    pub fn read(&self) -> u64 {\n        std::time::Instant::now(); 0\n    }\n}\n";
        let high = "\
pub fn sample(c: &sim_low::Clock) -> u64 { c.read() }\n";
        let (_, deep) = run(&[
            ("crates/low/src/lib.rs", "sim-low", low),
            ("crates/high/src/lib.rs", "sim-high", high),
        ]);
        let taint: Vec<&Diagnostic> = deep
            .diagnostics
            .iter()
            .filter(|d| d.rule == "determinism-taint")
            .collect();
        assert!(
            taint
                .iter()
                .any(|d| d.message.contains("sample -> Clock::read")),
            "{taint:?}"
        );
    }

    #[test]
    fn panic_sites_counted_outside_tests() {
        let src = "\
pub fn risky(v: &[u32], x: Option<u32>) -> u32 {\n\
    if v.is_empty() { panic!(\"empty\") }\n\
    v[0] + x.expect(\"x\")\n\
}\n\
#[cfg(test)]\nmod tests {\n    fn t() { unreachable!() }\n}\n";
        let (_, deep) = run(&[("crates/x/src/lib.rs", "sim-x", src)]);
        // panic! + v[0] + .expect( — the unreachable! sits in cfg(test).
        assert_eq!(deep.panic_sites, 3);
    }

    #[test]
    fn panic_allow_exempts_site() {
        let src = "\
pub fn checked(v: &[u32]) -> u32 {\n\
    // faasnap-lint: allow(panic-path, length asserted by caller contract)\n\
    v[0]\n\
}\n";
        let (_, deep) = run(&[("crates/x/src/lib.rs", "sim-x", src)]);
        assert_eq!(deep.panic_sites, 0);
        assert!(rules_of(&deep.diagnostics).is_empty()); // allow is live, not dead
    }

    #[test]
    fn float_rules_fire_on_reachable_paths_only() {
        let src = "\
pub fn order(xs: &mut Vec<f64>) {\n\
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
}\n\
fn dead_helper(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }\n";
        let (_, deep) = run(&[("crates/x/src/lib.rs", "sim-x", src)]);
        let floats: Vec<&Diagnostic> = deep
            .diagnostics
            .iter()
            .filter(|d| d.rule == "float-determinism")
            .collect();
        // `order` is public → flagged; `dead_helper` unreachable → not.
        assert_eq!(floats.len(), 1);
        assert_eq!(floats[0].line, 2);
    }

    #[test]
    fn float_map_keys_flagged() {
        let src = "pub struct S { pub by_score: std::collections::BTreeMap<f64, u32> }\n";
        let (_, deep) = run(&[("crates/x/src/lib.rs", "sim-x", src)]);
        assert_eq!(rules_of(&deep.diagnostics), vec!["float-determinism"]);
    }

    #[test]
    fn dead_allow_detected() {
        let src = "\
// faasnap-lint: allow(no-wallclock, there used to be a clock here)\n\
pub fn fine() {}\n";
        let (_, deep) = run(&[("crates/x/src/lib.rs", "sim-x", src)]);
        assert_eq!(rules_of(&deep.diagnostics), vec!["dead-allow"]);
        assert_eq!(deep.diagnostics[0].line, 1);
    }

    #[test]
    fn taint_allow_suppresses_and_is_live() {
        let src = "\
fn stamp() -> u64 { std::time::SystemTime::now(); 0 }\n\
// faasnap-lint: allow(determinism-taint, diagnostic wrapper, output never golden)\n\
pub fn debug_dump() -> u64 { stamp() }\n";
        let (_, deep) = run(&[("crates/x/src/lib.rs", "sim-x", src)]);
        assert!(!rules_of(&deep.diagnostics).contains(&"determinism-taint"));
        assert!(!rules_of(&deep.diagnostics).contains(&"dead-allow"));
    }
}
