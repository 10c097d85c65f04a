//! `rte-lint`: a workspace static-analysis pass that mechanically
//! enforces the determinism contract of `docs/ARCHITECTURE.md`.
//!
//! Every knob in this repository — `RTE_THREADS`, `RTE_SIMD`, streaming
//! chunk sizes — is documented as *bit-neutral*, and the integration
//! suites pin that bitwise. This crate closes the gap between the tests
//! and the contract: the classes of bug the tests can only catch after
//! the fact (an unordered map reduction, a stray environment read, an
//! FMA-contracted kernel expression) are *lintable*, so CI rejects them
//! before they can produce a schedule-dependent bit.
//!
//! The scanner is deliberately dependency-free and handwritten at the
//! line/token level (no `syn` — the workspace builds offline). It
//! strips comments and string literals with a small state machine, then
//! applies the rule set below to the remaining code text.
//!
//! # Rules
//!
//! | rule | contract | check |
//! |------|----------|-------|
//! | L1 | rule 5 (SIMD/mmap soundness) | `unsafe` only in `crates/tensor/src/simd.rs` and `crates/eda/src/mmap.rs`, and every site immediately preceded by a `// SAFETY:` comment |
//! | L2 | rule 2 (fixed-order reduction) | no iteration over `HashMap`/`HashSet` in non-test code (keyed lookup is fine; iteration order is not) |
//! | L3 | knob discipline | no raw `std::env::var` outside the sanctioned knob module (`crates/tensor/src/knobs.rs`) and `crates/bench` |
//! | L4 | bit-neutral outputs | no `Instant::now`/`SystemTime` in library crates (`crates/bench` and vendored crates exempt) |
//! | L5 | rule 2 (one schedule) | no thread creation outside `rte_tensor::parallel` |
//! | L6 | rule 5 (no contraction) | no `mul_add`/FMA intrinsics outside a `// DETERMINISM-OPT-OUT:` region |
//! | L7 | coverage tripwire | every `pub fn *_with(backend: SimdBackend, …)` kernel variant must be exercised by `tests/simd_determinism.rs` |
//!
//! # Escape hatches
//!
//! A finding can be suppressed at the site with a magic comment — the
//! reason is mandatory:
//!
//! ```text
//! // rte-lint: allow(L2) scratch map feeding a sort, order never observed
//! ```
//!
//! or grandfathered in the checked-in `lint.toml` allowlist at the
//! workspace root (rule + path + reason). The self-check test asserts
//! the allowlist never grows.

// The lint tool itself must satisfy its own rules: pure safe Rust.
#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// The determinism lint a finding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Un-annotated or out-of-allowlist `unsafe`.
    L1,
    /// Iteration over an unordered hash container.
    L2,
    /// Raw environment read outside the knob module.
    L3,
    /// Wall-clock read in library code.
    L4,
    /// Thread creation outside the parallel subsystem.
    L5,
    /// FMA-contracted float expression outside an opt-out region.
    L6,
    /// Kernel `_with` variant missing from the determinism suite.
    L7,
}

impl Rule {
    /// All rules, in order.
    pub const ALL: [Rule; 7] = [
        Rule::L1,
        Rule::L2,
        Rule::L3,
        Rule::L4,
        Rule::L5,
        Rule::L6,
        Rule::L7,
    ];

    /// Stable code used in findings and allowlists (`"L1"` … `"L7"`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::L1 => "L1",
            Rule::L2 => "L2",
            Rule::L3 => "L3",
            Rule::L4 => "L4",
            Rule::L5 => "L5",
            Rule::L6 => "L6",
            Rule::L7 => "L7",
        }
    }

    /// Parses a rule code (`"L1"` … `"L7"`).
    pub fn from_code(code: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.code() == code)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the scanned root, with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Result of a full workspace check.
#[derive(Debug)]
pub struct CheckReport {
    /// Surviving findings, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of `[[allow]]` entries in `lint.toml` (0 if absent).
    pub allowlist_entries: usize,
}

// ---------------------------------------------------------------------
// Source scanning: comment/string stripping.
// ---------------------------------------------------------------------

/// One physical source line, split into executable code text (string
/// literal *contents* blanked, comments removed) and comment text.
#[derive(Debug, Default, Clone)]
struct ScanLine {
    code: String,
    comment: String,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ScanState {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    CharLit,
}

/// Splits `src` into per-line code/comment texts. String and char
/// literal contents are replaced by blanks (delimiters kept) so token
/// searches never match inside literals; comments (line, doc and
/// nested block) are routed to the comment channel so SAFETY / allow
/// markers stay inspectable.
fn scan_source(src: &str) -> Vec<ScanLine> {
    let chars: Vec<char> = src.chars().collect();
    let mut lines = Vec::new();
    let mut line = ScanLine::default();
    let mut state = ScanState::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            lines.push(std::mem::take(&mut line));
            if state == ScanState::LineComment {
                state = ScanState::Code;
            }
            i += 1;
            continue;
        }
        match state {
            ScanState::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = ScanState::LineComment;
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = ScanState::BlockComment(1);
                    i += 2;
                    continue;
                }
                if c == '"' {
                    line.code.push('"');
                    state = ScanState::Str;
                    i += 1;
                    continue;
                }
                // Raw (and raw-byte) string literals: r"…", r#"…"#, br"…".
                if (c == 'r' || c == 'b') && !prev_is_word(&line.code) {
                    let start = if c == 'b' && next == Some('r') {
                        i + 2
                    } else {
                        i + 1
                    };
                    if c == 'r' || (c == 'b' && next == Some('r')) {
                        let mut hashes = 0usize;
                        while chars.get(start + hashes) == Some(&'#') {
                            hashes += 1;
                        }
                        if chars.get(start + hashes) == Some(&'"') {
                            for &rc in &chars[i..=start + hashes] {
                                line.code.push(rc);
                            }
                            state = ScanState::RawStr(hashes as u32);
                            i = start + hashes + 1;
                            continue;
                        }
                    }
                }
                if c == '\'' {
                    // Disambiguate char literals from lifetimes: a
                    // lifetime is `'ident` not followed by a closing
                    // quote.
                    let is_lifetime = next.map(|n| n.is_alphabetic() || n == '_').unwrap_or(false)
                        && chars.get(i + 2) != Some(&'\'');
                    if is_lifetime {
                        line.code.push(c);
                        i += 1;
                        continue;
                    }
                    line.code.push('\'');
                    state = ScanState::CharLit;
                    i += 1;
                    continue;
                }
                line.code.push(c);
                i += 1;
            }
            ScanState::LineComment => {
                line.comment.push(c);
                i += 1;
            }
            ScanState::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = ScanState::BlockComment(depth + 1);
                    line.comment.push_str("/*");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        ScanState::Code
                    } else {
                        ScanState::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    line.comment.push(c);
                    i += 1;
                }
            }
            ScanState::Str => {
                if c == '\\' {
                    line.code.push(' ');
                    if chars.get(i + 1).is_some() && chars[i + 1] != '\n' {
                        line.code.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '"' {
                    line.code.push('"');
                    state = ScanState::Code;
                    i += 1;
                } else {
                    line.code.push(' ');
                    i += 1;
                }
            }
            ScanState::RawStr(hashes) => {
                if c == '"' {
                    let h = hashes as usize;
                    let closed = (0..h).all(|k| chars.get(i + 1 + k) == Some(&'#'));
                    if closed {
                        line.code.push('"');
                        for _ in 0..h {
                            line.code.push('#');
                        }
                        state = ScanState::Code;
                        i += 1 + h;
                        continue;
                    }
                }
                line.code.push(' ');
                i += 1;
            }
            ScanState::CharLit => {
                if c == '\\' {
                    line.code.push(' ');
                    if chars.get(i + 1).is_some() && chars[i + 1] != '\n' {
                        line.code.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '\'' {
                    line.code.push('\'');
                    state = ScanState::Code;
                    i += 1;
                } else {
                    line.code.push(' ');
                    i += 1;
                }
            }
        }
    }
    if !line.code.is_empty() || !line.comment.is_empty() {
        lines.push(line);
    }
    lines
}

fn prev_is_word(code: &str) -> bool {
    code.chars().next_back().map(is_word_char).unwrap_or(false)
}

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// True when `code` contains `token` delimited by non-word characters
/// on both sides (so `unsafe_code` never matches a search for the bare
/// keyword).
fn has_token(code: &str, token: &str) -> bool {
    find_token(code, token).is_some()
}

/// Byte offset of the first word-boundary occurrence of `token`.
fn find_token(code: &str, token: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let abs = from + pos;
        let before_ok = abs == 0 || !is_word_char(code[..abs].chars().next_back().unwrap());
        let after = code[abs + token.len()..].chars().next();
        let after_ok = after.map(|c| !is_word_char(c)).unwrap_or(true);
        if before_ok && after_ok {
            return Some(abs);
        }
        from = abs + token.len().max(1);
    }
    None
}

// ---------------------------------------------------------------------
// Per-file structure: test regions, opt-out regions, allow comments.
// ---------------------------------------------------------------------

/// Marks lines inside `#[cfg(test)] mod … { … }` regions so rules that
/// exempt test code can skip them.
fn test_regions(lines: &[ScanLine]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut pending_cfg = false;
    let mut depth: i64 = 0;
    let mut active = false;
    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.trim();
        if active {
            in_test[idx] = true;
            depth += braces(code);
            if depth <= 0 {
                active = false;
            }
            continue;
        }
        if code.is_empty() {
            continue;
        }
        if code.contains("cfg(test)") && code.starts_with("#[") {
            pending_cfg = true;
            continue;
        }
        if pending_cfg {
            if code.starts_with("#[") || code.starts_with("#![") {
                continue; // further attributes between cfg and the item
            }
            if code.starts_with("mod ") || code.starts_with("pub mod ") {
                active = true;
                in_test[idx] = true;
                depth = braces(code);
                if depth <= 0 && code.contains('{') {
                    active = false;
                }
                pending_cfg = false;
                continue;
            }
            // `#[cfg(test)]` on a non-module item (a lone helper or
            // `use`): treat just that item's first line as test code.
            in_test[idx] = true;
            pending_cfg = false;
        }
    }
    in_test
}

fn braces(code: &str) -> i64 {
    let mut n = 0i64;
    for c in code.chars() {
        match c {
            '{' => n += 1,
            '}' => n -= 1,
            _ => {}
        }
    }
    n
}

/// Marks lines inside `// DETERMINISM-OPT-OUT:` … `// DETERMINISM-OPT-IN`
/// regions (L6's sanctioned escape for explicitly different-bits fast
/// paths). Returns the per-line flag plus findings for malformed
/// markers (a reason is mandatory on the opening marker).
fn optout_regions(lines: &[ScanLine], file: &str) -> (Vec<bool>, Vec<Finding>) {
    let mut flags = vec![false; lines.len()];
    let mut findings = Vec::new();
    let mut active = false;
    for (idx, line) in lines.iter().enumerate() {
        if let Some(pos) = line.comment.find("DETERMINISM-OPT-OUT:") {
            let reason = line.comment[pos + "DETERMINISM-OPT-OUT:".len()..].trim();
            if reason.is_empty() {
                findings.push(Finding {
                    file: file.to_string(),
                    line: idx + 1,
                    rule: Rule::L6,
                    message: "DETERMINISM-OPT-OUT marker without a reason \
                              (state why different bits are acceptable here)"
                        .into(),
                });
            }
            active = true;
        }
        flags[idx] = active;
        if line.comment.contains("DETERMINISM-OPT-IN") {
            active = false;
        }
    }
    (flags, findings)
}

/// A parsed `// rte-lint: allow(L2, L3) reason…` comment.
#[derive(Debug)]
struct AllowComment {
    rules: Vec<Rule>,
    has_reason: bool,
}

fn parse_allow_comment(comment: &str) -> Option<AllowComment> {
    let pos = comment.find("rte-lint:")?;
    let rest = comment[pos + "rte-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rules: Vec<Rule> = rest[..close]
        .split(',')
        .filter_map(|s| Rule::from_code(s.trim()))
        .collect();
    if rules.is_empty() {
        return None;
    }
    let reason = rest[close + 1..]
        .trim_start_matches([':', '—', '-', ' '])
        .trim();
    Some(AllowComment {
        rules,
        has_reason: !reason.is_empty(),
    })
}

// ---------------------------------------------------------------------
// lint.toml allowlist.
// ---------------------------------------------------------------------

/// One grandfathered `[[allow]]` entry from `lint.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// The suppressed rule.
    pub rule: Rule,
    /// Root-relative file path the suppression applies to.
    pub path: String,
    /// Mandatory justification.
    pub reason: String,
}

/// Parses the restricted `lint.toml` dialect: `[[allow]]` tables with
/// `rule`/`path`/`reason` string keys, `#` comments and blank lines.
///
/// # Errors
///
/// Returns a description of the first malformed line, unknown key,
/// unknown rule code, or incomplete entry.
pub fn parse_allowlist(src: &str) -> Result<Vec<AllowEntry>, String> {
    #[derive(Default)]
    struct Partial {
        rule: Option<Rule>,
        path: Option<String>,
        reason: Option<String>,
    }
    fn seal(p: Partial, at: usize) -> Result<AllowEntry, String> {
        let entry = AllowEntry {
            rule: p.rule.ok_or(format!(
                "lint.toml entry ending at line {at}: missing `rule`"
            ))?,
            path: p.path.ok_or(format!(
                "lint.toml entry ending at line {at}: missing `path`"
            ))?,
            reason: p.reason.ok_or(format!(
                "lint.toml entry ending at line {at}: missing `reason`"
            ))?,
        };
        if entry.reason.trim().is_empty() {
            return Err(format!(
                "lint.toml entry ending at line {at}: empty `reason`"
            ));
        }
        Ok(entry)
    }
    let mut entries = Vec::new();
    let mut current: Option<Partial> = None;
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(p) = current.take() {
                entries.push(seal(p, lineno)?);
            }
            current = Some(Partial::default());
            continue;
        }
        let (key, value) = line.split_once('=').ok_or(format!(
            "lint.toml line {lineno}: expected `key = \"value\"`"
        ))?;
        let value = value
            .trim()
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or(format!(
                "lint.toml line {lineno}: value must be a quoted string"
            ))?;
        let p = current.as_mut().ok_or(format!(
            "lint.toml line {lineno}: key outside an [[allow]] table"
        ))?;
        match key.trim() {
            "rule" => {
                p.rule = Some(
                    Rule::from_code(value)
                        .ok_or(format!("lint.toml line {lineno}: unknown rule {value:?}"))?,
                );
            }
            "path" => p.path = Some(value.to_string()),
            "reason" => p.reason = Some(value.to_string()),
            other => return Err(format!("lint.toml line {lineno}: unknown key {other:?}")),
        }
    }
    if let Some(p) = current.take() {
        entries.push(seal(p, src.lines().count())?);
    }
    Ok(entries)
}

// ---------------------------------------------------------------------
// Rules L1–L6 (per-file).
// ---------------------------------------------------------------------

/// The only files allowed to contain `unsafe`: the SIMD intrinsic arm
/// and the POSIX mmap shim behind the memory-mapped shard reader.
const UNSAFE_ALLOWLIST: [&str; 2] = ["crates/tensor/src/simd.rs", "crates/eda/src/mmap.rs"];
/// The single sanctioned raw-environment-read module.
const KNOB_MODULE: &str = "crates/tensor/src/knobs.rs";
/// The thread-pool module allowed to create threads.
const PARALLEL_MODULE: &str = "crates/tensor/src/parallel.rs";

struct FileContext<'a> {
    rel: &'a str,
    lines: &'a [ScanLine],
    in_test: &'a [bool],
    in_optout: &'a [bool],
    /// Whole file is test/bench/example scaffolding (under `tests/`,
    /// `benches/` or `examples/`).
    test_file: bool,
    bench_crate: bool,
}

impl FileContext<'_> {
    fn is_test(&self, idx: usize) -> bool {
        self.test_file || self.in_test[idx]
    }
}

/// True when the contiguous run of comment-only / attribute lines
/// directly above `idx` (or the line's own comment) contains a SAFETY
/// marker (`SAFETY:` line comment or a `# Safety` doc section).
fn has_safety_comment(lines: &[ScanLine], idx: usize) -> bool {
    let marks = |l: &ScanLine| l.comment.contains("SAFETY:") || l.comment.contains("# Safety");
    if marks(&lines[idx]) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &lines[i];
        let code = l.code.trim();
        let is_comment_only = code.is_empty() && !l.comment.is_empty();
        let is_attr = code.starts_with("#[") || code.starts_with("#![");
        let is_blank = code.is_empty() && l.comment.is_empty();
        if !(is_comment_only || is_attr) || is_blank {
            return false;
        }
        if marks(l) {
            return true;
        }
    }
    false
}

fn check_l1(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for (idx, line) in ctx.lines.iter().enumerate() {
        if !has_token(&line.code, "unsafe") {
            continue;
        }
        if !UNSAFE_ALLOWLIST.contains(&ctx.rel) {
            out.push(Finding {
                file: ctx.rel.to_string(),
                line: idx + 1,
                rule: Rule::L1,
                message: format!(
                    "`unsafe` outside the allowlist (only {} may contain \
                     unsafe code; see ARCHITECTURE.md rule 5)",
                    UNSAFE_ALLOWLIST.join(", ")
                ),
            });
        } else if !has_safety_comment(ctx.lines, idx) {
            out.push(Finding {
                file: ctx.rel.to_string(),
                line: idx + 1,
                rule: Rule::L1,
                message: "`unsafe` without an immediately preceding `// SAFETY:` comment \
                          stating the invariant that makes it sound"
                    .into(),
            });
        }
    }
}

const MAP_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const ITER_SUFFIXES: [&str; 10] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".retain(",
];

/// Collects identifiers bound to a `HashMap`/`HashSet` anywhere in the
/// file: `let (mut) name = HashMap::…`, `name: HashMap<…>` fields and
/// parameters, including through wrappers like `Option<HashMap<…>>`.
fn hash_container_names(ctx: &FileContext<'_>) -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = Vec::new();
    for line in ctx.lines {
        let code = line.code.trim_start();
        if code.starts_with("use ") || code.starts_with("pub use ") {
            continue;
        }
        for ty in MAP_TYPES {
            let Some(pos) = find_token(&line.code, ty) else {
                continue;
            };
            if let Some(name) = binding_name(&line.code[..pos]) {
                if !names.iter().any(|(n, _)| *n == name) {
                    names.push((name, ty));
                }
            }
        }
    }
    names
}

/// Walks backwards from a type usage to the identifier it binds:
/// strips wrapper generics (`Option<`, `&`, `&mut `) until it reaches a
/// `:` (typed binding/field/param) or `=` (inferred `let`), then reads
/// the identifier before it.
fn binding_name(before: &str) -> Option<String> {
    let mut s = before.trim_end();
    loop {
        let t = s.trim_end();
        if let Some(rest) = t.strip_suffix('<') {
            // `Option<`, `Vec<`, `&mut BTreeMap<` … — drop the wrapper
            // ident too, then continue unwrapping.
            let rest = rest.trim_end();
            let cut = rest
                .rfind(|c: char| !is_word_char(c))
                .map(|p| p + 1)
                .unwrap_or(0);
            s = &rest[..cut.min(rest.len())];
            continue;
        }
        if let Some(rest) = t.strip_suffix('&') {
            s = rest;
            continue;
        }
        if let Some(rest) = t.strip_suffix("mut") {
            if !prev_is_word(rest) {
                s = rest;
                continue;
            }
        }
        s = t;
        break;
    }
    let s = s.trim_end();
    let s = s.strip_suffix([':', '='])?.trim_end();
    if s.ends_with(':') {
        // `::` path segment, not a binding.
        return None;
    }
    let start = s
        .rfind(|c: char| !is_word_char(c))
        .map(|p| p + 1)
        .unwrap_or(0);
    let name = &s[start..];
    if name.is_empty() || name.chars().next().unwrap().is_ascii_digit() {
        return None;
    }
    if name == "let" || name == "mut" {
        return None;
    }
    Some(name.to_string())
}

fn check_l2(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let names = hash_container_names(ctx);
    if names.is_empty() {
        return;
    }
    for (idx, line) in ctx.lines.iter().enumerate() {
        if ctx.is_test(idx) {
            continue;
        }
        for (name, ty) in &names {
            let mut from = 0;
            while let Some(pos) = line.code[from..].find(name.as_str()) {
                let abs = from + pos;
                from = abs + name.len();
                let before_ok =
                    abs == 0 || !is_word_char(line.code[..abs].chars().next_back().unwrap());
                if !before_ok {
                    continue;
                }
                let suffix = &line.code[abs + name.len()..];
                if suffix.chars().next().map(is_word_char).unwrap_or(false) {
                    continue;
                }
                let iterated = ITER_SUFFIXES.iter().any(|m| suffix.starts_with(m));
                let prefix = &line.code[..abs];
                let for_loop = (prefix.ends_with("in &") || prefix.ends_with("in &mut "))
                    || (prefix.ends_with(" in ") && suffix.trim_start().starts_with('{'));
                if iterated || for_loop {
                    out.push(Finding {
                        file: ctx.rel.to_string(),
                        line: idx + 1,
                        rule: Rule::L2,
                        message: format!(
                            "iteration over unordered `{ty}` `{name}` — iteration order is \
                             nondeterministic; use BTreeMap/BTreeSet or keep the container \
                             lookup-only (ARCHITECTURE.md rule 2)"
                        ),
                    });
                }
            }
        }
    }
}

fn check_l3(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if ctx.rel == KNOB_MODULE || ctx.bench_crate {
        return;
    }
    for (idx, line) in ctx.lines.iter().enumerate() {
        if ctx.is_test(idx) {
            continue;
        }
        // `env::var` also prefixes `env::var_os`; `env::vars` covers
        // the iterator forms.
        if line.code.contains("env::var") || line.code.contains("env::vars") {
            out.push(Finding {
                file: ctx.rel.to_string(),
                line: idx + 1,
                rule: Rule::L3,
                message: format!(
                    "raw environment read outside the sanctioned knob module — route \
                     it through {KNOB_MODULE} so unknown values fail loudly with the \
                     accepted-values list"
                ),
            });
        }
    }
}

/// Ambient-entropy sources: every one would seed an RNG (or hash order)
/// from process-unique state, so a "seeded" chaos or retry schedule
/// silently stops replaying. Flagged alongside the wall clock because
/// both are the same defect — outputs depending on when/where the
/// process ran instead of on the config seed.
const ENTROPY_PATTERNS: [&str; 4] = ["RandomState", "from_entropy", "thread_rng", "getrandom"];

fn check_l4(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if ctx.bench_crate {
        return;
    }
    for (idx, line) in ctx.lines.iter().enumerate() {
        if ctx.is_test(idx) {
            continue;
        }
        if line.code.contains("Instant::now") || has_token(&line.code, "SystemTime") {
            out.push(Finding {
                file: ctx.rel.to_string(),
                line: idx + 1,
                rule: Rule::L4,
                message: "wall-clock read in library code — timing belongs in crates/bench; \
                          outputs must be bit-identical across runs"
                    .into(),
            });
        }
        if ENTROPY_PATTERNS.iter().any(|p| has_token(&line.code, p)) {
            out.push(Finding {
                file: ctx.rel.to_string(),
                line: idx + 1,
                rule: Rule::L4,
                message: "ambient entropy source in library code — seed every stream \
                          (chaos, retry jitter, training) from the config so runs \
                          replay bit-for-bit (ARCHITECTURE.md rules 4 and 9)"
                    .into(),
            });
        }
    }
}

const SPAWN_PATTERNS: [&str; 3] = ["thread::spawn", "thread::scope", "thread::Builder"];

fn check_l5(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if ctx.rel == PARALLEL_MODULE {
        return;
    }
    for (idx, line) in ctx.lines.iter().enumerate() {
        if ctx.is_test(idx) {
            continue;
        }
        if SPAWN_PATTERNS.iter().any(|p| line.code.contains(p)) {
            out.push(Finding {
                file: ctx.rel.to_string(),
                line: idx + 1,
                rule: Rule::L5,
                message: "thread creation outside rte_tensor::parallel — ad-hoc threads \
                          bypass the fixed-order reduction schedule (ARCHITECTURE.md rule 2)"
                    .into(),
            });
        }
    }
}

const FMA_PATTERNS: [&str; 4] = ["fmadd", "fmsub", "fnmadd", "fnmsub"];

fn check_l6(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for (idx, line) in ctx.lines.iter().enumerate() {
        if ctx.is_test(idx) || ctx.in_optout[idx] {
            continue;
        }
        let fma_intrinsic = FMA_PATTERNS.iter().any(|p| line.code.contains(p));
        if has_token(&line.code, "mul_add") || fma_intrinsic {
            out.push(Finding {
                file: ctx.rel.to_string(),
                line: idx + 1,
                rule: Rule::L6,
                message: "FMA contraction (`mul_add`/fused intrinsic) rounds once where \
                          mul+add round twice, splitting the SIMD arms bitwise — tag an \
                          explicit `// DETERMINISM-OPT-OUT: reason` region if different \
                          bits are intended (ARCHITECTURE.md rule 5)"
                    .into(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// L7: kernel-variant coverage tripwire (cross-file).
// ---------------------------------------------------------------------

/// The integration suite every dispatched kernel variant must appear in.
const DETERMINISM_SUITE: &str = "tests/simd_determinism.rs";

/// Finds `pub fn name_with(backend: SimdBackend, …)` declarations —
/// the dispatched kernel variants whose scalar/vector bit-identity the
/// determinism suite must exercise.
fn kernel_variants(lines: &[ScanLine]) -> Vec<(String, usize)> {
    let mut found = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        let Some(pos) = code.find("pub fn ") else {
            continue;
        };
        let rest = &code[pos + "pub fn ".len()..];
        let name_end = rest.find(|c: char| !is_word_char(c)).unwrap_or(rest.len());
        let name = &rest[..name_end];
        if !name.ends_with("_with") {
            continue;
        }
        let Some(paren) = rest.find('(') else {
            continue;
        };
        // First parameter: the remainder of this line after `(`, plus
        // the next line for multi-line signatures.
        let mut params = rest[paren + 1..].to_string();
        if params.trim().is_empty() {
            if let Some(next) = lines.get(idx + 1) {
                params = next.code.clone();
            }
        }
        let first = params.split([',', ')']).next().unwrap_or("");
        if first.contains("SimdBackend") {
            found.push((name.to_string(), idx + 1));
        }
    }
    found
}

fn check_l7(root: &Path, files: &[(String, Vec<ScanLine>)], out: &mut Vec<Finding>) {
    let variants: Vec<(String, String, usize)> = files
        .iter()
        .filter(|(rel, _)| rel.starts_with("crates/tensor/src/"))
        .flat_map(|(rel, lines)| {
            kernel_variants(lines)
                .into_iter()
                .map(move |(name, line)| (rel.clone(), name, line))
        })
        .collect();
    if variants.is_empty() {
        return;
    }
    let suite = fs::read_to_string(root.join(DETERMINISM_SUITE)).unwrap_or_default();
    for (rel, name, line) in variants {
        if suite.is_empty() {
            out.push(Finding {
                file: rel,
                line,
                rule: Rule::L7,
                message: format!(
                    "kernel variant `{name}` declared but {DETERMINISM_SUITE} is missing — \
                     every dispatched kernel needs bitwise scalar-vs-vector coverage"
                ),
            });
            continue;
        }
        if !suite.contains(&name) {
            out.push(Finding {
                file: rel,
                line,
                rule: Rule::L7,
                message: format!(
                    "kernel variant `{name}` is not exercised by {DETERMINISM_SUITE} \
                     (coverage tripwire: every `*_with(backend: SimdBackend, …)` kernel \
                     must be compared bitwise across arms)"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Workspace walking and the check entry point.
// ---------------------------------------------------------------------

/// Directories never scanned: build output, VCS, vendored stand-ins
/// (external idiom, not ours to lint) and the lint fixtures themselves
/// (they contain violations on purpose).
const SKIP_DIRS: [&str; 4] = ["target", ".git", "crates/vendor", "crates/lint/fixtures"];

fn collect_rs_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    fn walk(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
        let mut entries: Vec<PathBuf> = fs::read_dir(dir)
            .map_err(|e| format!("read_dir {}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if path.is_dir() {
                if SKIP_DIRS.contains(&rel.as_str()) || rel.starts_with('.') {
                    continue;
                }
                walk(&path, root, out)?;
            } else if rel.ends_with(".rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    Ok(files)
}

fn is_scaffold_path(rel: &str) -> bool {
    rel.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples" || seg == "fixtures")
}

/// Runs the full rule set over the workspace at `root`.
///
/// # Errors
///
/// Returns a description on I/O failures or a malformed `lint.toml`.
pub fn check_root(root: &Path) -> Result<CheckReport, String> {
    let allow_entries = match fs::read_to_string(root.join("lint.toml")) {
        Ok(src) => parse_allowlist(&src)?,
        Err(_) => Vec::new(),
    };
    let paths = collect_rs_files(root)?;
    let mut findings = Vec::new();
    let mut scanned = Vec::new();
    for path in &paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(path).map_err(|e| format!("read {rel}: {e}"))?;
        let lines = scan_source(&src);
        scanned.push((rel, lines));
    }
    for (rel, lines) in &scanned {
        let in_test = test_regions(lines);
        let (in_optout, mut optout_findings) = optout_regions(lines, rel);
        findings.append(&mut optout_findings);
        let ctx = FileContext {
            rel,
            lines,
            in_test: &in_test,
            in_optout: &in_optout,
            test_file: is_scaffold_path(rel),
            bench_crate: rel.starts_with("crates/bench/"),
        };
        let mut raw = Vec::new();
        check_l1(&ctx, &mut raw);
        check_l2(&ctx, &mut raw);
        check_l3(&ctx, &mut raw);
        check_l4(&ctx, &mut raw);
        check_l5(&ctx, &mut raw);
        check_l6(&ctx, &mut raw);
        // Site-level escape hatch: a `// rte-lint: allow(L#) reason`
        // comment on the finding's line or the contiguous comment block
        // above it. A reason-less allow suppresses nothing and is
        // itself a finding.
        for f in raw {
            match allow_at(lines, f.line - 1, f.rule) {
                AllowState::Suppressed => {}
                AllowState::MissingReason => {
                    findings.push(Finding {
                        message: format!(
                            "rte-lint allow comment for {} is missing its mandatory \
                             reason — `// rte-lint: allow({}) why it is sound`",
                            f.rule, f.rule
                        ),
                        ..f
                    });
                }
                AllowState::None => findings.push(f),
            }
        }
    }
    check_l7(root, &scanned, &mut findings);
    // File-level grandfathering from lint.toml.
    findings.retain(|f| {
        !allow_entries
            .iter()
            .any(|e| e.rule == f.rule && e.path == f.file)
    });
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(CheckReport {
        findings,
        files_scanned: scanned.len(),
        allowlist_entries: allow_entries.len(),
    })
}

enum AllowState {
    None,
    Suppressed,
    MissingReason,
}

fn allow_at(lines: &[ScanLine], idx: usize, rule: Rule) -> AllowState {
    let check = |line: &ScanLine| -> Option<AllowState> {
        let allow = parse_allow_comment(&line.comment)?;
        if !allow.rules.contains(&rule) {
            return None;
        }
        Some(if allow.has_reason {
            AllowState::Suppressed
        } else {
            AllowState::MissingReason
        })
    };
    if let Some(state) = check(&lines[idx]) {
        return state;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &lines[i];
        let comment_only = l.code.trim().is_empty() && !l.comment.is_empty();
        if !comment_only {
            break;
        }
        if let Some(state) = check(l) {
            return state;
        }
    }
    AllowState::None
}

/// Renders findings as the machine-readable `--json` document.
pub fn render_json(report: &CheckReport) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        let sep = if i + 1 == report.findings.len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!(
            "    {{\"file\": {}, \"line\": {}, \"rule\": \"{}\", \"message\": {}}}{sep}\n",
            json_string(&f.file),
            f.line,
            f.rule,
            json_string(&f.message)
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"count\": {},\n  \"files_scanned\": {},\n  \"allowlist_entries\": {}\n}}\n",
        report.findings.len(),
        report.files_scanned,
        report.allowlist_entries
    ));
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        scan_source(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn strips_line_and_block_comments() {
        let lines = scan_source("let a = 1; // trailing note\n/* gone */ let b = 2;\n");
        assert_eq!(lines[0].code.trim(), "let a = 1;");
        assert_eq!(lines[0].comment.trim(), "trailing note");
        assert_eq!(lines[1].code.trim(), "let b = 2;");
    }

    #[test]
    fn strips_string_contents_but_keeps_delimiters() {
        let lines = code_of("let s = \"contains // not a comment\";\n");
        assert!(lines[0].contains('"'));
        assert!(!lines[0].contains("comment"));
    }

    #[test]
    fn handles_raw_strings_and_escapes() {
        let lines = code_of("let s = r#\"raw \" body\"#; let t = \"esc\\\"aped\";\nlet u = 1;\n");
        assert!(!lines[0].contains("raw"));
        assert!(!lines[0].contains("aped"));
        assert_eq!(lines[1].trim(), "let u = 1;");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lines = code_of("fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x';\n");
        assert!(lines[0].contains("fn f<'a>"));
        assert!(!lines[1].contains('x'));
    }

    #[test]
    fn nested_block_comments() {
        let lines = code_of("/* outer /* inner */ still comment */ let a = 1;\n");
        assert_eq!(lines[0].trim(), "let a = 1;");
    }

    #[test]
    fn token_boundaries() {
        assert!(has_token("unsafe { x }", "unsafe"));
        assert!(!has_token("#![forbid(unsafe_code)]", "unsafe"));
        assert!(!has_token("find_unsafe_token()", "unsafe"));
    }

    #[test]
    fn test_region_detection() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}\n";
        let lines = scan_source(src);
        let flags = test_regions(&lines);
        assert_eq!(flags, vec![false, false, true, true, true, false]);
    }

    #[test]
    fn binding_name_extraction() {
        assert_eq!(binding_name("let velocity = ").as_deref(), Some("velocity"));
        assert_eq!(binding_name("    velocity: ").as_deref(), Some("velocity"));
        assert_eq!(
            binding_name("let reference_map: Option<").as_deref(),
            Some("reference_map")
        );
        assert_eq!(binding_name("fn f(m: &").as_deref(), Some("m"));
        assert_eq!(binding_name("use std::collections::").as_deref(), None);
    }

    #[test]
    fn allow_comment_parsing() {
        let a = parse_allow_comment(" rte-lint: allow(L2) scratch map, order unused").unwrap();
        assert_eq!(a.rules, vec![Rule::L2]);
        assert!(a.has_reason);
        let b = parse_allow_comment(" rte-lint: allow(L2, L4)").unwrap();
        assert_eq!(b.rules, vec![Rule::L2, Rule::L4]);
        assert!(!b.has_reason);
        assert!(parse_allow_comment("plain comment").is_none());
    }

    #[test]
    fn allowlist_parses_and_validates() {
        let src = "# comment\n[[allow]]\nrule = \"L4\"\npath = \"src/x.rs\"\nreason = \"grandfathered\"\n";
        let entries = parse_allowlist(src).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rule, Rule::L4);
        assert!(parse_allowlist("[[allow]]\nrule = \"L9\"\n").is_err());
        assert!(parse_allowlist("[[allow]]\nrule = \"L4\"\npath = \"x\"\n").is_err());
    }

    #[test]
    fn kernel_variant_detection() {
        let src = "pub fn matmul_with(\n    backend: SimdBackend,\n    a: &[f32],\n) {}\n\
                   pub fn conv2d_with(x: &T, par: Parallelism) {}\n\
                   pub fn axpy_with(backend: SimdBackend, alpha: f32) {}\n";
        let lines = scan_source(src);
        let v = kernel_variants(&lines);
        let names: Vec<&str> = v.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["matmul_with", "axpy_with"]);
    }
}
