//! The text-rule engine: determinism rules over masked source lines.
//!
//! Rules match identifier-bounded substrings in code (never comments or
//! strings — see [`crate::lexer`]). Any finding can be suppressed with an
//! inline `allow` directive written as the `faasnap-lint` marker, a colon,
//! then `allow(rule-id, reason)` in a line comment; the reason is
//! mandatory. A directive suppresses matching findings on its own line and
//! on the line directly below it, so both trailing and preceding
//! placements work. A directive with a missing reason or an unknown rule
//! id is itself reported (`malformed-allow`) and suppresses nothing.

use crate::diag::Diagnostic;
use crate::lexer::{self, Comment};

/// Every rule id the tool can emit, in stable order. The first block is
/// the line-lexer rules; the second block only fires under `--deep`
/// (parser/call-graph/taint passes — see [`crate::taint`]).
pub const RULE_IDS: &[&str] = &[
    "no-wallclock",
    "no-os-entropy",
    "no-threads",
    "no-unordered-iteration",
    "unwrap-budget",
    "layering",
    "missing-forbid-unsafe",
    "malformed-allow",
    "no-env-read",
    "determinism-taint",
    "panic-path",
    "float-determinism",
    "dead-allow",
];

/// Where a source file sits, for rule applicability decisions.
#[derive(Clone, Copy, Debug)]
pub struct FileCtx<'a> {
    /// Workspace-relative path used in diagnostics.
    pub path: &'a str,
    /// Cargo package name of the owning crate.
    pub crate_name: &'a str,
    /// True for files under `tests/`, `benches/`, or `examples/` —
    /// harness code, exempt from the unwrap budget.
    pub is_harness: bool,
}

/// Result of linting one file.
#[derive(Clone, Debug, Default)]
pub struct FileLint {
    /// Findings, sorted.
    pub diagnostics: Vec<Diagnostic>,
    /// Non-test `unwrap()`/`expect()` call sites (budget input).
    pub unwrap_sites: u64,
    /// True if the file carries `#![forbid(unsafe_code)]`.
    pub has_forbid_unsafe: bool,
    /// Well-formed allow directives, with usage marks. The deep passes
    /// keep marking these; whatever stays unused becomes `dead-allow`.
    pub allows: Vec<AllowRecord>,
}

/// A parsed, well-formed allow directive plus whether it ever fired.
#[derive(Clone, Debug)]
pub struct AllowRecord {
    /// 1-based line the directive comment starts on.
    pub line: u32,
    /// Rule id it suppresses.
    pub rule: String,
    /// True once the directive has suppressed at least one finding (or
    /// exempted at least one budget site) in any pass.
    pub used: bool,
}

impl AllowRecord {
    /// A directive covers its own line (trailing form) and the next line
    /// (preceding form).
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.rule == rule && (self.line == line || self.line + 1 == line)
    }
}

/// True if some directive covers (rule, line); marks it used.
pub fn consume_allow(allows: &mut [AllowRecord], rule: &str, line: u32) -> bool {
    let mut hit = false;
    for a in allows.iter_mut() {
        if a.covers(rule, line) {
            a.used = true;
            hit = true;
        }
    }
    hit
}

struct TextRule {
    id: &'static str,
    patterns: &'static [&'static str],
    /// `{}` is replaced with the matched pattern.
    message: &'static str,
    applies: fn(&FileCtx) -> bool,
}

fn everywhere(_: &FileCtx) -> bool {
    true
}

/// Wall-clock is sanctioned in exactly one crate: faasnap-obs, whose
/// self-profiler reads a monotonic clock behind the off-by-default
/// `wallclock` cargo feature and never feeds timing back into the
/// simulation. Everything else must derive time from SimTime.
fn wallclock_sanctioned(ctx: &FileCtx) -> bool {
    ctx.crate_name != "faasnap-obs"
}

const TEXT_RULES: &[TextRule] = &[
    TextRule {
        id: "no-wallclock",
        patterns: &["Instant::now", "SystemTime"],
        message: "wall-clock source `{}` in deterministic code; derive time from \
                  sim_core::time::SimTime instead",
        applies: wallclock_sanctioned,
    },
    TextRule {
        id: "no-os-entropy",
        patterns: &[
            "RandomState",
            "thread_rng",
            "OsRng",
            "from_entropy",
            "getrandom",
        ],
        message: "OS entropy source `{}`; use a seeded sim_core::rng::Prng so runs replay \
                  byte-identically",
        applies: everywhere,
    },
    TextRule {
        id: "no-threads",
        patterns: &["thread::spawn", "thread::sleep"],
        message: "`{}` in simulation/runtime code; the DES engine is single-threaded and \
                  sleeps in simulated time only",
        applies: everywhere,
    },
    // sim_core::detmap::DetMap / DetSet are the sanctioned hash
    // containers: seeded hashing, insertion-ordered iteration, so they
    // replay byte-identically and never match this rule.
    TextRule {
        id: "no-unordered-iteration",
        patterns: &["HashMap", "HashSet"],
        message: "`{}` has unspecified iteration order, the classic determinism leak; use \
                  sim_core::detmap::DetMap/DetSet (seeded, insertion-ordered), \
                  BTreeMap/BTreeSet, or sort before iterating",
        applies: everywhere,
    },
];

fn is_ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// Occurrences of `pat` in `line` at identifier boundaries (so `HashMap`
/// does not match inside `MyHashMapLike`).
pub fn count_matches(line: &str, pat: &str) -> u64 {
    let lb = line.as_bytes();
    let pb = pat.as_bytes();
    let bound_front = is_ident_byte(pb[0]);
    let bound_back = is_ident_byte(pb[pb.len() - 1]);
    let mut n = 0u64;
    let mut start = 0usize;
    while let Some(pos) = line[start..].find(pat) {
        let p = start + pos;
        let end = p + pb.len();
        let pre_ok = !bound_front || p == 0 || !is_ident_byte(lb[p - 1]);
        let post_ok = !bound_back || end >= lb.len() || !is_ident_byte(lb[end]);
        if pre_ok && post_ok {
            n += 1;
        }
        start = p + 1;
    }
    n
}

const MARKER: &str = concat!("faasnap-lint", ":");

fn parse_directives(ctx: &FileCtx, comments: &[Comment]) -> (Vec<AllowRecord>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for c in comments {
        let Some(pos) = c.text.find(MARKER) else {
            continue;
        };
        let rest = c.text[pos + MARKER.len()..].trim();
        let malformed = |msg: String| Diagnostic::new(ctx.path, c.line, "malformed-allow", msg);
        let Some(body) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.rfind(')').map(|e| &r[..e]))
        else {
            diags.push(malformed(format!(
                "directive must read `allow(rule-id, reason)`, got `{rest}`"
            )));
            continue;
        };
        let (rule, reason) = match body.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (body.trim(), ""),
        };
        if !RULE_IDS.contains(&rule) {
            diags.push(malformed(format!("unknown rule id `{rule}`")));
        } else if reason.is_empty() {
            diags.push(malformed(format!(
                "allow({rule}) needs a reason: `allow({rule}, why this is sound)`"
            )));
        } else {
            allows.push(AllowRecord {
                line: c.line,
                rule: rule.to_string(),
                used: false,
            });
        }
    }
    (allows, diags)
}

/// Marks lines inside `#[cfg(test)]`-attributed items (brace-balanced on
/// the masked text), which the unwrap budget skips.
pub fn cfg_test_lines(masked_lines: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; masked_lines.len()];
    let mut i = 0usize;
    while i < masked_lines.len() {
        if !masked_lines[i].contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let mut depth = 0i64;
        let mut started = false;
        let mut j = i;
        'scan: while j < masked_lines.len() {
            for b in masked_lines[j].bytes() {
                match b {
                    b'{' => {
                        depth += 1;
                        started = true;
                    }
                    b'}' => {
                        depth -= 1;
                        if started && depth == 0 {
                            break 'scan;
                        }
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        let end = j.min(masked_lines.len() - 1);
        for flag in &mut in_test[i..=end] {
            *flag = true;
        }
        i = end + 1;
    }
    in_test
}

/// Lints one file's source text. Layering and crate-root checks live in
/// [`crate::layering`] and [`crate::lint_workspace`]; everything
/// line-shaped happens here.
pub fn lint_source(ctx: &FileCtx, source: &str) -> FileLint {
    lint_scanned(ctx, &lexer::scan(source))
}

/// [`lint_source`] over an already-scanned file, so the deep pipeline
/// can lex once and share the result with the parser.
pub fn lint_scanned(ctx: &FileCtx, scanned: &lexer::Scanned) -> FileLint {
    let (mut allows, mut diagnostics) = parse_directives(ctx, &scanned.comments);
    let test_lines = cfg_test_lines(&scanned.masked_lines);
    let mut unwrap_sites = 0u64;
    let mut has_forbid_unsafe = false;

    for (idx, mline) in scanned.masked_lines.iter().enumerate() {
        let line = idx as u32 + 1;
        if mline.contains("#![forbid(unsafe_code)]") {
            has_forbid_unsafe = true;
        }
        for rule in TEXT_RULES {
            if !(rule.applies)(ctx) {
                continue;
            }
            for pat in rule.patterns {
                if count_matches(mline, pat) > 0 && !consume_allow(&mut allows, rule.id, line) {
                    diagnostics.push(Diagnostic::new(
                        ctx.path,
                        line,
                        rule.id,
                        rule.message.replace("{}", pat),
                    ));
                }
            }
        }
        if !ctx.is_harness && !test_lines[idx] {
            let n = count_matches(mline, ".unwrap()") + count_matches(mline, ".expect(");
            if n > 0 && !consume_allow(&mut allows, "unwrap-budget", line) {
                unwrap_sites += n;
            }
        }
    }

    diagnostics.sort();
    FileLint {
        diagnostics,
        unwrap_sites,
        has_forbid_unsafe,
        allows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> FileCtx<'static> {
        FileCtx {
            path: "crates/sim-x/src/lib.rs",
            crate_name: "sim-x",
            is_harness: false,
        }
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        lint_source(&ctx(), src)
            .diagnostics
            .iter()
            .map(|d| d.rule)
            .collect()
    }

    #[test]
    fn wallclock_and_entropy_fire() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n\
                   fn g() { let s = std::collections::hash_map::RandomState::new(); }\n";
        assert_eq!(rules_of(src), vec!["no-wallclock", "no-os-entropy"]);
    }

    #[test]
    fn obs_selfprofiler_exempt_from_wallclock_only() {
        let c = FileCtx {
            path: "crates/faasnap-obs/src/selfprof.rs",
            crate_name: "faasnap-obs",
            is_harness: false,
        };
        let wall = "fn f() { let t = std::time::Instant::now(); }\n";
        assert!(lint_source(&c, wall).diagnostics.is_empty());
        // The carve-out covers wall-clock only: entropy still fires.
        let entropy = "fn g() { let s = RandomState::new(); }\n";
        assert_eq!(
            lint_source(&c, entropy)
                .diagnostics
                .iter()
                .map(|d| d.rule)
                .collect::<Vec<_>>(),
            vec!["no-os-entropy"],
        );
    }

    #[test]
    fn detmap_and_detset_are_sanctioned() {
        // The deterministic hash containers must not trip the rule the
        // way HashMap/HashSet do — no per-site allow needed.
        let src = "use sim_core::detmap::{DetMap, DetSet};\n\
                   fn f() { let m: DetMap<u32, u32> = DetMap::new(); let _ = m.len(); }\n\
                   fn g() { let s: DetSet<u32> = DetSet::new(); let _ = s.len(); }\n";
        assert!(rules_of(src).is_empty());
        assert_eq!(
            rules_of("let m = HashMap::new();\n"),
            vec!["no-unordered-iteration"]
        );
    }

    #[test]
    fn patterns_in_strings_and_comments_ignored() {
        let src = "fn f() -> &'static str { \"no HashMap, no Instant::now\" }\n\
                   fn g() {} /* thread::spawn in prose */\n";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn ident_boundary_respected() {
        assert_eq!(count_matches("struct MyHashMapLike;", "HashMap"), 0);
        assert_eq!(count_matches("let m: HashMap<u32, u32>;", "HashMap"), 1);
        assert_eq!(count_matches("a.unwrap().b.unwrap()", ".unwrap()"), 2);
        assert_eq!(count_matches("x.expect_err(\"e\")", ".expect("), 0);
    }

    #[test]
    fn unwrap_budget_counts_non_test_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn g(x: Option<u32>) -> u32 { x.unwrap() + x.expect(\"t\") }\n\
                   }\n";
        assert_eq!(lint_source(&ctx(), src).unwrap_sites, 1);
    }

    #[test]
    fn harness_files_skip_unwrap_budget() {
        let c = FileCtx {
            path: "crates/sim-x/tests/t.rs",
            crate_name: "sim-x",
            is_harness: true,
        };
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(lint_source(&c, src).unwrap_sites, 0);
    }

    #[test]
    fn forbid_unsafe_detected() {
        assert!(lint_source(&ctx(), "#![forbid(unsafe_code)]\n").has_forbid_unsafe);
        assert!(!lint_source(&ctx(), "// #![forbid(unsafe_code)]\n").has_forbid_unsafe);
    }
}
