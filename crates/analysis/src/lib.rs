//! `xag-analysis` — workspace-invariant static analysis.
//!
//! The workspace's concurrency and portability guarantees (DESIGN.md
//! §12) are invariants of the *project*, not of the language, so no
//! off-the-shelf linter can check them. This crate is a std-only lint
//! engine over the hand-rolled token scanner in [`lexer`] (no
//! `syn`/proc-macro — offline policy) enforcing five named rules:
//!
//! * [`RULE_PANIC`] **no-panic-in-request-path** — `unwrap()`,
//!   `expect()`, `panic!`-family macros, and `[]`-indexing are forbidden
//!   in the serve/cluster request-path files; a connection or worker
//!   thread that panics takes its client (or the whole pool) with it.
//! * [`RULE_DETERMINISM`] **determinism** — `Instant::now` /
//!   `SystemTime::now` are banned from the rewrite-engine crates (the
//!   engine's bit-identical-results contract cannot depend on wall
//!   clock), and `std::env` reads are banned outside binaries and the
//!   bench harness.
//! * [`RULE_LOCK_ORDER`] **lock-order** — every `Mutex`/`RwLock` struct
//!   field is extracted, an acquisition graph is built from the lock
//!   call sequences inside each function, and cycles (or inversions of
//!   the blessed order) are flagged.
//! * [`RULE_OFFLINE`] **offline-policy** — Cargo.toml dependencies must
//!   be workspace-internal, and `std::process::Command` / raw
//!   `TcpStream::connect` may not appear outside the modules that own
//!   network I/O.
//! * [`RULE_PROTOCOL`] **protocol-exhaustiveness** — every
//!   `Request`/`Response` variant in `protocol.rs` must have an encode
//!   site, a decode site, and a test that mentions it.
//!
//! Findings are suppressible with `// lint: allow(rule): reason`
//! comments — the reason is mandatory ([`RULE_ALLOW`] fires on a bare
//! allow), and allows that suppress nothing are reported as warnings so
//! stale exemptions rot visibly. The `mc-lint` binary walks the
//! workspace and prints `file:line: rule: message` diagnostics (or
//! `--json`).

pub mod lexer;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use lexer::{scan, strip_test_code, Allow, Tok, Token};

pub const RULE_PANIC: &str = "no-panic-in-request-path";
pub const RULE_DETERMINISM: &str = "determinism";
pub const RULE_LOCK_ORDER: &str = "lock-order";
pub const RULE_OFFLINE: &str = "offline-policy";
pub const RULE_PROTOCOL: &str = "protocol-exhaustiveness";
/// Meta-rule: allow directives must carry a reason.
pub const RULE_ALLOW: &str = "lint-allow";

/// All enforceable rules, for `--list-rules`.
pub const RULES: [&str; 6] = [
    RULE_PANIC,
    RULE_DETERMINISM,
    RULE_LOCK_ORDER,
    RULE_OFFLINE,
    RULE_PROTOCOL,
    RULE_ALLOW,
];

/// One diagnostic, anchored to a workspace-relative file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The lint result: hard findings plus non-fatal warnings (stale
/// allows). `--deny-all` promotes warnings to failures.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub warnings: Vec<Finding>,
}

/// Scope configuration: which files each rule bites on. The workspace
/// default encodes this repository's layout; fixture tests build their
/// own.
#[derive(Debug, Clone)]
pub struct Config {
    /// Files (path suffixes) in the request path: rule 1 scope.
    pub panic_path_files: Vec<String>,
    /// Path prefixes where wall-clock reads are forbidden: rule 2.
    pub time_forbidden: Vec<String>,
    /// Path prefixes (beyond `/bin/` files) where `std::env` reads are
    /// approved: rule 2.
    pub env_allowed: Vec<String>,
    /// Path suffixes allowed to call `TcpStream::connect`: rule 4.
    pub connect_allowed: Vec<String>,
    /// Blessed acquisition order (first before second, by lock-field
    /// name): rule 3 flags inversions even without a full cycle.
    pub blessed_lock_order: Vec<(String, String)>,
    /// The protocol definition file (path suffix): rule 5 scope.
    pub protocol_file: Option<String>,
}

impl Config {
    /// The scope this repository's rules bite on.
    pub fn workspace_default() -> Self {
        Self {
            panic_path_files: [
                "crates/serve/src/server.rs",
                "crates/serve/src/endpoint.rs",
                "crates/serve/src/protocol.rs",
                "crates/serve/src/cache.rs",
                "crates/serve/src/queue.rs",
                "crates/serve/src/coalesce.rs",
                "crates/cluster/src/router.rs",
                "crates/cluster/src/registry.rs",
            ]
            .map(String::from)
            .to_vec(),
            time_forbidden: [
                "crates/core/src/",
                "crates/cuts/src/",
                "crates/tt/src/",
                "crates/xag/src/",
                "crates/affine/src/",
                "crates/synth/src/",
                "crates/circuits/src/",
                "crates/rng/src/",
            ]
            .map(String::from)
            .to_vec(),
            // The bench harness takes env knobs (sample counts); the
            // engine crates do not. Test dirs are exempt structurally.
            env_allowed: ["crates/bench/src/"].map(String::from).to_vec(),
            connect_allowed: ["crates/serve/src/client.rs", "crates/cluster/src/health.rs"]
                .map(String::from)
                .to_vec(),
            // The coalescing pending map lives *inside* the cache lock
            // and the ring *inside* the registry lock; should either
            // ever be split out, the one-lock order stays law.
            blessed_lock_order: vec![
                ("cache".to_string(), "pending".to_string()),
                ("registry".to_string(), "ring".to_string()),
            ],
            protocol_file: Some("crates/serve/src/protocol.rs".to_string()),
        }
    }
}

/// One scanned source file, split into production and test tokens.
pub struct FileScan {
    pub path: String,
    pub live: Vec<Token>,
    pub test: Vec<Token>,
    pub allows: Vec<Allow>,
}

/// Scans in-memory sources (used by the fixture tests; the binary goes
/// through [`lint_workspace`]).
pub fn scan_sources(files: &[(String, String)]) -> Vec<FileScan> {
    files
        .iter()
        .map(|(path, source)| {
            let s = scan(source);
            let (live, test) = strip_test_code(&s.tokens);
            FileScan {
                path: path.clone(),
                live,
                test,
                allows: s.allows,
            }
        })
        .collect()
}

/// Runs every rule over scanned files and manifests, applies the allow
/// directives, and reports what survives.
pub fn lint(files: &[FileScan], manifests: &[(String, String)], cfg: &Config) -> Report {
    let mut raw: Vec<Finding> = Vec::new();
    for f in files {
        raw.extend(rule_panic_path(f, cfg));
        raw.extend(rule_determinism(f, cfg));
        raw.extend(rule_offline_api(f, cfg));
    }
    raw.extend(rule_lock_order(files, cfg));
    raw.extend(rule_protocol(files, cfg));
    for (path, text) in manifests {
        raw.extend(rule_offline_manifest(path, text));
    }

    // Allow handling: a directive suppresses same-rule findings on its
    // own line or the next one; bare directives are findings themselves;
    // directives that suppress nothing are warnings.
    let mut findings = Vec::new();
    let mut used: BTreeSet<(String, usize)> = BTreeSet::new();
    for finding in raw {
        let allows = files
            .iter()
            .find(|f| f.path == finding.file)
            .map(|f| f.allows.as_slice())
            .unwrap_or(&[]);
        let hit = allows.iter().find(|a| {
            a.rule == finding.rule && (a.line == finding.line || a.line + 1 == finding.line)
        });
        match hit {
            Some(a) => {
                used.insert((finding.file.clone(), a.line));
            }
            None => findings.push(finding),
        }
    }
    let mut warnings = Vec::new();
    for f in files {
        for a in &f.allows {
            if !a.has_reason {
                findings.push(Finding {
                    rule: RULE_ALLOW,
                    file: f.path.clone(),
                    line: a.line,
                    message: format!(
                        "allow({}) has no reason; write `// lint: allow({}): <why>`",
                        a.rule, a.rule
                    ),
                });
            }
            if !RULES.contains(&a.rule.as_str()) {
                findings.push(Finding {
                    rule: RULE_ALLOW,
                    file: f.path.clone(),
                    line: a.line,
                    message: format!("allow names unknown rule `{}`", a.rule),
                });
            } else if !used.contains(&(f.path.clone(), a.line)) {
                warnings.push(Finding {
                    rule: RULE_ALLOW,
                    file: f.path.clone(),
                    line: a.line,
                    message: format!("allow({}) suppresses nothing; remove it", a.rule),
                });
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    warnings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Report { findings, warnings }
}

/// Walks the workspace at `root` and lints everything.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let cfg = Config::workspace_default();
    let mut sources: Vec<(String, String)> = Vec::new();
    let mut manifests: Vec<(String, String)> = Vec::new();

    let mut dirs: Vec<PathBuf> = vec![root.join("src"), root.join("tests")];
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut crate_roots: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_roots.sort();
        for c in &crate_roots {
            dirs.push(c.join("src"));
            dirs.push(c.join("tests"));
            let manifest = c.join("Cargo.toml");
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                manifests.push((rel(root, &manifest), text));
            }
        }
    }
    if let Ok(text) = std::fs::read_to_string(root.join("Cargo.toml")) {
        manifests.push(("Cargo.toml".to_string(), text));
    }

    let mut rs_files: Vec<PathBuf> = Vec::new();
    for dir in dirs {
        collect_rs(&dir, &mut rs_files)?;
    }
    rs_files.sort();
    for path in rs_files {
        let text = std::fs::read_to_string(&path)?;
        sources.push((rel(root, &path), text));
    }
    let files = scan_sources(&sources);
    Ok(lint(&files, &manifests, &cfg))
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(()); // absent dirs (crates without tests/) are fine
    };
    for entry in entries {
        let path = entry?.path();
        let name = path.file_name().map(|n| n.to_string_lossy().to_string());
        // Lint fixtures contain deliberate violations; build output is
        // not ours.
        if matches!(name.as_deref(), Some("fixtures") | Some("target")) {
            continue;
        }
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match &toks.get(i)?.tok {
        Tok::Ident(s) => Some(s),
        _ => None,
    }
}

fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    matches!(&toks.get(i), Some(t) if t.tok == Tok::Punct(c))
}

// ---------------------------------------------------------------------
// Rule 1: no-panic-in-request-path
// ---------------------------------------------------------------------

fn rule_panic_path(f: &FileScan, cfg: &Config) -> Vec<Finding> {
    if !cfg.panic_path_files.iter().any(|p| f.path.ends_with(p)) {
        return Vec::new();
    }
    let toks = &f.live;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        // `.unwrap()` / `.expect(`
        if punct_at(toks, i, '.') {
            if let Some(m) = ident_at(toks, i + 1) {
                if (m == "unwrap" || m == "expect") && punct_at(toks, i + 2, '(') {
                    out.push(Finding {
                        rule: RULE_PANIC,
                        file: f.path.clone(),
                        line: toks[i + 1].line,
                        message: format!(
                            ".{m}() can panic a request-path thread; return a protocol error or recover"
                        ),
                    });
                }
            }
        }
        // panic!-family macros.
        if let Some(m) = ident_at(toks, i) {
            if matches!(m, "panic" | "unreachable" | "todo" | "unimplemented")
                && punct_at(toks, i + 1, '!')
            {
                out.push(Finding {
                    rule: RULE_PANIC,
                    file: f.path.clone(),
                    line: toks[i].line,
                    message: format!("{m}! aborts a request-path thread; return a protocol error"),
                });
            }
        }
        // `expr[...]` indexing (panics out of bounds). `#[attr]`,
        // `macro![...]`, types, and full-range `[..]` slices don't match.
        if punct_at(toks, i, '[') && i > 0 {
            let indexable = matches!(
                &toks[i - 1].tok,
                Tok::Ident(_) | Tok::Punct(')') | Tok::Punct(']')
            );
            let full_range = punct_at(toks, i + 1, '.')
                && punct_at(toks, i + 2, '.')
                && punct_at(toks, i + 3, ']');
            if indexable && !full_range {
                out.push(Finding {
                    rule: RULE_PANIC,
                    file: f.path.clone(),
                    line: toks[i].line,
                    message: "indexing panics out of bounds in the request path; use .get()"
                        .to_string(),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 2: determinism
// ---------------------------------------------------------------------

fn rule_determinism(f: &FileScan, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &f.live;
    let in_bin = f.path.contains("/bin/");
    // Test harnesses may take env knobs (seeds, sample counts); library
    // behavior may not.
    let in_tests = f.path.starts_with("tests/") || f.path.contains("/tests/");
    let time_scoped = cfg
        .time_forbidden
        .iter()
        .any(|p| f.path.starts_with(p.as_str()));
    let env_exempt = in_bin
        || in_tests
        || cfg
            .env_allowed
            .iter()
            .any(|p| f.path.starts_with(p.as_str()));
    for i in 0..toks.len() {
        if let Some(ty) = ident_at(toks, i) {
            let path_sep = punct_at(toks, i + 1, ':') && punct_at(toks, i + 2, ':');
            if !path_sep {
                continue;
            }
            let member = ident_at(toks, i + 3).unwrap_or("");
            if time_scoped && (ty == "Instant" || ty == "SystemTime") && member == "now" {
                out.push(Finding {
                    rule: RULE_DETERMINISM,
                    file: f.path.clone(),
                    line: toks[i].line,
                    message: format!(
                        "{ty}::now in a rewrite-path crate; results must not depend on wall clock"
                    ),
                });
            }
            if !env_exempt
                && ty == "env"
                && matches!(
                    member,
                    "var" | "var_os" | "vars" | "vars_os" | "args" | "args_os"
                )
            {
                out.push(Finding {
                    rule: RULE_DETERMINISM,
                    file: f.path.clone(),
                    line: toks[i].line,
                    message: format!(
                        "env::{member} outside a binary; library behavior must not depend on the environment"
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 3: lock-order
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct LockEdge {
    from: String,
    to: String,
    file: String,
    line: usize,
}

/// Lock fields per struct: `Struct.field` nodes.
fn collect_lock_fields(files: &[FileScan]) -> BTreeMap<String, Vec<String>> {
    // field name → owning struct names (for qualification).
    let mut owners: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for f in files {
        let toks = &f.live;
        let mut i = 0;
        while i < toks.len() {
            if ident_at(toks, i) == Some("struct") {
                if let Some(name) = ident_at(toks, i + 1) {
                    // Find the struct body `{`; a `;` first means a unit
                    // or tuple struct — no named lock fields.
                    let mut j = i + 2;
                    while j < toks.len()
                        && !punct_at(toks, j, '{')
                        && !punct_at(toks, j, ';')
                        && !punct_at(toks, j, '(')
                    {
                        j += 1;
                    }
                    if punct_at(toks, j, '{') {
                        let mut depth = 1;
                        let mut angle: isize = 0;
                        let mut k = j + 1;
                        let mut field: Option<String> = None;
                        let mut ty_has_lock = false;
                        while k < toks.len() && depth > 0 {
                            match &toks[k].tok {
                                Tok::Punct('{') => depth += 1,
                                Tok::Punct('}') => depth -= 1,
                                Tok::Punct('<') => angle += 1,
                                Tok::Punct('>') => angle -= 1,
                                Tok::Punct(',') if depth == 1 && angle == 0 => {
                                    if let (true, Some(field)) = (ty_has_lock, field.take()) {
                                        owners.entry(field).or_default().push(name.to_string());
                                    }
                                    field = None;
                                    ty_has_lock = false;
                                }
                                // `field :` — the preceding ident is
                                // the field name (skip `::` paths).
                                Tok::Punct(':')
                                    if depth == 1
                                        && field.is_none()
                                        && !punct_at(toks, k + 1, ':')
                                        && !punct_at(toks, k - 1, ':') =>
                                {
                                    field = ident_at(toks, k - 1).map(String::from);
                                }
                                Tok::Ident(s)
                                    if field.is_some() && (s == "Mutex" || s == "RwLock") =>
                                {
                                    ty_has_lock = true
                                }
                                _ => {}
                            }
                            k += 1;
                        }
                        if ty_has_lock {
                            if let Some(field) = field.take() {
                                owners.entry(field).or_default().push(name.to_string());
                            }
                        }
                        i = k;
                        continue;
                    }
                }
            }
            i += 1;
        }
    }
    owners
}

fn rule_lock_order(files: &[FileScan], cfg: &Config) -> Vec<Finding> {
    let owners = collect_lock_fields(files);
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut out = Vec::new();

    for f in files {
        let toks = &f.live;
        // Track the current `impl TypeName` block to qualify `state`-like
        // field names that several structs share.
        let mut i = 0;
        while i < toks.len() {
            if ident_at(toks, i) == Some("fn") {
                let impl_ty = enclosing_impl(toks, i);
                let (body_start, body_end) = match fn_body(toks, i) {
                    Some(span) => span,
                    None => {
                        i += 1;
                        continue;
                    }
                };
                scan_fn_locks(
                    f,
                    toks,
                    body_start,
                    body_end,
                    impl_ty.as_deref(),
                    &owners,
                    &mut edges,
                    &mut out,
                );
                i = body_end;
                continue;
            }
            i += 1;
        }
    }

    // Cycle detection over the directed graph: a node is cyclic iff one
    // of its successors reaches back to it. Each strongly connected
    // cycle is reported once, from its lexicographically smallest node.
    let mut graph: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &edges {
        graph.entry(&e.from).or_default().insert(&e.to);
    }
    let cyclic: Vec<&str> = graph
        .keys()
        .copied()
        .filter(|&n| {
            graph
                .get(n)
                .into_iter()
                .flatten()
                .any(|&m| reaches(&graph, m, n))
        })
        .collect();
    for &n in &cyclic {
        let minimal = cyclic
            .iter()
            .all(|&o| o >= n || !(reaches(&graph, n, o) && reaches(&graph, o, n)));
        if !minimal {
            continue;
        }
        if let Some(witness) = edges.iter().find(|e| e.from == n) {
            out.push(Finding {
                rule: RULE_LOCK_ORDER,
                file: witness.file.clone(),
                line: witness.line,
                message: format!(
                    "lock acquisition cycle through `{n}`: concurrent threads can each hold one lock and wait on the other (deadlock)"
                ),
            });
        }
    }

    // Blessed-order inversions (flagged even without a full cycle).
    for (first, second) in &cfg.blessed_lock_order {
        for e in &edges {
            let from_field = e.from.rsplit('.').next().unwrap_or(&e.from);
            let to_field = e.to.rsplit('.').next().unwrap_or(&e.to);
            if from_field == second && to_field == first {
                out.push(Finding {
                    rule: RULE_LOCK_ORDER,
                    file: e.file.clone(),
                    line: e.line,
                    message: format!(
                        "acquires `{second}` before `{first}`, inverting the blessed {first}→{second} order"
                    ),
                });
            }
        }
    }
    out
}

fn reaches(graph: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut stack = vec![from];
    let mut seen = BTreeSet::new();
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        for &m in graph.get(n).into_iter().flatten() {
            if seen.insert(m) {
                stack.push(m);
            }
        }
    }
    false
}

/// The `impl TypeName` whose body encloses token `i`, if any.
fn enclosing_impl(toks: &[Token], i: usize) -> Option<String> {
    // Walk back, tracking brace balance; an `impl` at negative depth
    // (i.e. whose block we are inside) wins.
    let mut depth: isize = 0;
    let mut j = i;
    while j > 0 {
        j -= 1;
        match &toks[j].tok {
            Tok::Punct('}') => depth += 1,
            Tok::Punct('{') => depth -= 1,
            Tok::Ident(s) if s == "impl" && depth < 0 => {
                // `impl<G> Type<G> {` / `impl Trait for Type {` — the
                // type is the last angle-depth-0 ident before the body
                // brace (or a `where` clause), skipping `for`.
                let mut k = j + 1;
                let mut last = None;
                let mut angle: isize = 0;
                while k < i && !punct_at(toks, k, '{') {
                    match &toks[k].tok {
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>') => angle -= 1,
                        Tok::Ident(s) if s == "where" => break,
                        Tok::Ident(s) if s != "for" && angle == 0 => last = Some(s.clone()),
                        _ => {}
                    }
                    k += 1;
                }
                return last;
            }
            _ => {}
        }
    }
    None
}

/// The `{`..`}` token span of the fn whose `fn` keyword is at `i`.
fn fn_body(toks: &[Token], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    let mut angle: isize = 0;
    while j < toks.len() {
        match toks[j].tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Punct(';') if angle <= 0 => return None, // trait method decl
            Tok::Punct('{') if angle <= 0 => break,
            _ => {}
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    let start = j;
    let mut depth = 0usize;
    while j < toks.len() {
        match toks[j].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some((start, j + 1));
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

struct Guard {
    node: String,
    depth: usize,
    binding: Option<String>,
}

#[allow(clippy::too_many_arguments)]
fn scan_fn_locks(
    f: &FileScan,
    toks: &[Token],
    start: usize,
    end: usize,
    impl_ty: Option<&str>,
    owners: &BTreeMap<String, Vec<String>>,
    edges: &mut Vec<LockEdge>,
    out: &mut Vec<Finding>,
) {
    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();
    let mut i = start;
    while i < end {
        match &toks[i].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
            }
            Tok::Punct(';') => {
                // Temporaries die at end of statement.
                guards.retain(|g| g.binding.is_some() || g.depth != depth);
            }
            Tok::Ident(s) if s == "drop" && punct_at(toks, i + 1, '(') => {
                if let Some(name) = ident_at(toks, i + 2) {
                    if punct_at(toks, i + 3, ')') {
                        guards.retain(|g| g.binding.as_deref() != Some(name));
                    }
                }
            }
            _ => {}
        }
        if let Some((field, line, call_end)) = lock_acquisition(toks, i) {
            let node = qualify(&field, impl_ty, owners);
            for g in &guards {
                if g.node == node {
                    out.push(Finding {
                        rule: RULE_LOCK_ORDER,
                        file: f.path.clone(),
                        line,
                        message: format!(
                            "`{node}` is re-locked while already held — std mutexes are not reentrant"
                        ),
                    });
                } else {
                    edges.push(LockEdge {
                        from: g.node.clone(),
                        to: node.clone(),
                        file: f.path.clone(),
                        line,
                    });
                }
            }
            // A `let` names the guard only when the statement's value IS
            // the guard (modulo poison-handling adapters); a chained
            // `.fork()` etc. makes the guard a temporary that dies at
            // the statement's `;`.
            let binding = if yields_guard(toks, call_end) {
                let_binding(toks, i, depth, start)
            } else {
                None
            };
            guards.push(Guard {
                node,
                depth,
                binding,
            });
        }
        i += 1;
    }
}

/// Recognizes a lock acquisition at token `i`:
/// `.<field>.lock()` / `.read()` / `.write()`, or the poison-recovering
/// helpers `lock_unpoisoned(&…<field>)`. Returns the field, the line,
/// and the index one past the call's closing parenthesis.
fn lock_acquisition(toks: &[Token], i: usize) -> Option<(String, usize, usize)> {
    if punct_at(toks, i, '.') {
        let field = ident_at(toks, i + 1)?;
        if punct_at(toks, i + 2, '.') {
            let method = ident_at(toks, i + 3)?;
            if matches!(method, "lock" | "read" | "write") && punct_at(toks, i + 4, '(') {
                return Some((
                    field.to_string(),
                    toks[i + 3].line,
                    matching_paren(toks, i + 4)?,
                ));
            }
        }
    }
    if ident_at(toks, i) == Some("lock_unpoisoned") && punct_at(toks, i + 1, '(') {
        // Last ident before the closing paren is the field.
        let end = matching_paren(toks, i + 1)?;
        let mut last = None;
        for j in i + 2..end - 1 {
            if let Some(s) = ident_at(toks, j) {
                last = Some(s.to_string());
            }
        }
        if let Some(field) = last {
            return Some((field, toks[i].line, end));
        }
    }
    None
}

/// One past the `)` matching the `(` at `open`.
fn matching_paren(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Whether the expression continuing at `i` still evaluates to the lock
/// guard: nothing follows, or only poison-handling adapters chain on.
fn yields_guard(toks: &[Token], mut i: usize) -> bool {
    while punct_at(toks, i, '.') {
        if !matches!(
            ident_at(toks, i + 1),
            Some("unwrap" | "expect" | "unwrap_or_else")
        ) {
            return false;
        }
        match matching_paren(toks, i + 2) {
            Some(end) => i = end,
            None => return false,
        }
    }
    true
}

/// `Struct.field` when the owner is unambiguous (unique owner, or the
/// enclosing impl's type owns it); bare field name otherwise.
fn qualify(field: &str, impl_ty: Option<&str>, owners: &BTreeMap<String, Vec<String>>) -> String {
    match owners.get(field) {
        Some(list) if list.len() == 1 => format!("{}.{field}", list[0]),
        Some(list) => match impl_ty {
            Some(ty) if list.iter().any(|o| o == ty) => format!("{ty}.{field}"),
            _ => field.to_string(),
        },
        None => field.to_string(),
    }
}

/// Whether the acquisition at `i` is bound by `let [mut] name = …` in
/// the current statement (searching back to the statement start).
fn let_binding(toks: &[Token], i: usize, _depth: usize, fn_start: usize) -> Option<String> {
    let mut j = i;
    while j > fn_start {
        j -= 1;
        match &toks[j].tok {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => return None,
            Tok::Ident(s) if s == "let" => {
                let name_idx = if ident_at(toks, j + 1) == Some("mut") {
                    j + 2
                } else {
                    j + 1
                };
                // `let x = *m.lock().unwrap();` copies *out of* the
                // guard; the guard itself is a temporary that dies at
                // the statement's `;`.
                let mut k = name_idx + 1;
                while k < i && !punct_at(toks, k, '=') {
                    k += 1;
                }
                if punct_at(toks, k + 1, '*') {
                    return None;
                }
                return ident_at(toks, name_idx).map(String::from);
            }
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------
// Rule 4: offline-policy
// ---------------------------------------------------------------------

fn rule_offline_api(f: &FileScan, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &f.live;
    let connect_ok =
        f.path.contains("/bin/") || cfg.connect_allowed.iter().any(|p| f.path.ends_with(p));
    for i in 0..toks.len() {
        let Some(ty) = ident_at(toks, i) else {
            continue;
        };
        let path_sep = punct_at(toks, i + 1, ':') && punct_at(toks, i + 2, ':');
        if !path_sep {
            continue;
        }
        let member = ident_at(toks, i + 3).unwrap_or("");
        if ty == "process" && member == "Command" {
            out.push(Finding {
                rule: RULE_OFFLINE,
                file: f.path.clone(),
                line: toks[i].line,
                message: "std::process::Command is forbidden (offline, no-subprocess policy)"
                    .to_string(),
            });
        }
        if !connect_ok && ty == "TcpStream" && member == "connect" {
            out.push(Finding {
                rule: RULE_OFFLINE,
                file: f.path.clone(),
                line: toks[i].line,
                message:
                    "raw TcpStream::connect outside the client/health modules; route through Client"
                        .to_string(),
            });
        }
    }
    out
}

fn rule_offline_manifest(path: &str, text: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line.ends_with("dependencies]");
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name, spec)) = line.split_once('=') else {
            continue;
        };
        let name = name.trim();
        let spec = spec.trim();
        if !spec.contains("workspace = true") && !spec.contains("path =") {
            out.push(Finding {
                rule: RULE_OFFLINE,
                file: path.to_string(),
                line: lineno + 1,
                message: format!(
                    "dependency `{name}` is not workspace-internal; external crates violate the offline policy"
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 5: protocol-exhaustiveness
// ---------------------------------------------------------------------

fn rule_protocol(files: &[FileScan], cfg: &Config) -> Vec<Finding> {
    let Some(proto_suffix) = &cfg.protocol_file else {
        return Vec::new();
    };
    let Some(proto) = files
        .iter()
        .find(|f| f.path.ends_with(proto_suffix.as_str()))
    else {
        return Vec::new();
    };
    let toks = &proto.live;

    let mut variants: Vec<(String, usize)> = Vec::new();
    for enum_name in ["Request", "Response"] {
        variants.extend(enum_variants(toks, enum_name));
    }

    let encode = fn_body_idents(toks, &["to_json"]);
    let decode = fn_body_idents(toks, &["from_payload", "from_payload_inner"]);

    // Test corpus: the protocol file's own #[cfg(test)] code plus every
    // file under a tests/ directory.
    let mut test_idents: BTreeSet<String> = idents_of(&proto.test);
    for f in files {
        if f.path.contains("tests/") {
            test_idents.extend(idents_of(&f.live));
            test_idents.extend(idents_of(&f.test));
        }
    }

    let mut out = Vec::new();
    for (variant, line) in variants {
        for (corpus, what) in [
            (&encode, "no encode site (to_json never names it)"),
            (&decode, "no decode site (from_payload never names it)"),
            (&test_idents, "no test mentions it"),
        ] {
            if !corpus.contains(&variant) {
                out.push(Finding {
                    rule: RULE_PROTOCOL,
                    file: proto.path.clone(),
                    line,
                    message: format!("frame variant `{variant}`: {what}"),
                });
            }
        }
    }
    out
}

fn idents_of(toks: &[Token]) -> BTreeSet<String> {
    toks.iter()
        .filter_map(|t| match &t.tok {
            Tok::Ident(s) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

/// Variant names (and lines) of `enum <name> { … }`.
fn enum_variants(toks: &[Token], name: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if ident_at(toks, i) == Some("enum") && ident_at(toks, i + 1) == Some(name) {
            let mut j = i + 2;
            while j < toks.len() && !punct_at(toks, j, '{') {
                j += 1;
            }
            let mut depth = 1usize;
            let mut expect_variant = true;
            j += 1;
            while j < toks.len() {
                match &toks[j].tok {
                    Tok::Punct('{') | Tok::Punct('(') => {
                        depth += 1;
                        expect_variant = false;
                    }
                    Tok::Punct('}') | Tok::Punct(')') => {
                        depth -= 1;
                        if depth == 0 {
                            return out;
                        }
                    }
                    Tok::Punct(',') if depth == 1 => expect_variant = true,
                    Tok::Punct('#') => expect_variant = false, // attribute on variant
                    Tok::Punct(']') if depth == 1 => expect_variant = true, // attribute closed
                    Tok::Ident(s) if depth == 1 && expect_variant => {
                        out.push((s.clone(), toks[j].line));
                        expect_variant = false;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        i += 1;
    }
    out
}

/// Union of the identifier sets of every `fn <name>` body.
fn fn_body_idents(toks: &[Token], names: &[&str]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut i = 0;
    while i < toks.len() {
        if ident_at(toks, i) == Some("fn")
            && ident_at(toks, i + 1).map(|n| names.contains(&n)) == Some(true)
        {
            if let Some((start, end)) = fn_body(toks, i) {
                out.extend(idents_of(&toks[start..end]));
                i = end;
                continue;
            }
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------

/// Renders findings as a JSON array (hand-rolled; offline policy).
pub fn to_json(findings: &[Finding]) -> String {
    let mut s = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            esc(f.rule),
            esc(&f.file),
            f.line,
            esc(&f.message)
        ));
    }
    s.push(']');
    s
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
