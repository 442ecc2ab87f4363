//! Call-graph panic-reachability analysis (`panicscan`).
//!
//! The lint pass checks individual lines; this pass checks *paths*. It
//! scans every non-test source file in the workspace with
//! [`crate::parse::scan_items`], builds an over-approximate call graph by
//! name matching, and walks it from the declared serving/decode entry
//! points ([`ENTRY_POINTS`]): the `lcrec-serve` engine surface, the
//! constrained beam searches, `IndexTrie` lookups, and the `lcrec-par`
//! pool mapping functions. Any potential panic site — `.unwrap()`,
//! `.expect(…)`, `panic!`/`unreachable!`, or a direct slice index — inside
//! a function reachable from an entry point is a finding unless the line
//! carries a `// lint: allow(panic, reason = …)` annotation (see
//! [`crate::annot`]).
//!
//! # Call-graph resolution
//!
//! Dependency-free name matching, biased toward over-approximation so a
//! hazard is never missed for want of type inference:
//!
//! * `Type::name(…)` (and `Self::name(…)` inside an `impl`) links to the
//!   workspace functions defined in an `impl Type` block; a lowercase
//!   qualifier (`beam::prune(…)`) falls back to free functions named
//!   `name`.
//! * `.name(…)` method calls link to **every** workspace method called
//!   `name`, whatever type defines it — receiver types are unknown.
//! * `name(…)` bare calls link to every workspace free function named
//!   `name` (keywords, macros, and capitalized constructors excluded).
//!
//! Std/closure methods simply resolve to nothing. The fan-out means some
//! functions are "reachable" only via a name collision; the escape hatch
//! for a site that is genuinely fine is an annotation with a reason, which
//! then shows up in the audit table. Stale annotations (suppressing
//! nothing) and malformed ones are findings too, so every allow stays
//! load-bearing: delete one and the pass — and the tier-1 test wrapping
//! it — fails.

use crate::annot::{parse_allows, Allow, JsonFinding, Scope};
use crate::lint::{test_code_mask, walk};
use crate::parse::{scan_items, strip_comments_and_strings, CallKind, ItemScan};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};

/// The declared panic-free surface: `(impl type, fn name)` pairs, `None`
/// for free functions. Reachability is computed from every workspace
/// function matching a pair; a pair matching nothing is itself a finding
/// (`missing-entry-point`) so renames cannot silently hollow out the pass.
pub const ENTRY_POINTS: &[(Option<&str>, &str)] = &[
    (Some("Engine"), "submit"),
    (Some("Engine"), "submit_with_deadline"),
    (Some("Engine"), "step"),
    (Some("Engine"), "step_outcomes"),
    (Some("Engine"), "flush"),
    (Some("Engine"), "flush_outcomes"),
    (Some("Router"), "submit"),
    (Some("Router"), "step"),
    (Some("Router"), "step_outcomes"),
    (Some("Router"), "flush"),
    (Some("Router"), "flush_outcomes"),
    (Some("Router"), "hot_swap"),
    (Some("Router"), "swap_catalog"),
    (Some("Ring"), "primary"),
    (Some("Ring"), "replica_cycle"),
    (None, "constrained_beam_search"),
    (None, "constrained_beam_search_with"),
    (None, "multi_constrained_beam_search"),
    (None, "multi_constrained_beam_search_with"),
    (None, "multi_constrained_beam_search_scratch"),
    (Some("CausalLm"), "greedy"),
    (Some("IndexTrie"), "build"),
    (Some("IndexTrie"), "from_text"),
    (Some("IndexTrie"), "allowed"),
    (Some("IndexTrie"), "allowed_slice"),
    (Some("IndexTrie"), "item_at"),
    (Some("IndexTrie"), "levels"),
    (Some("IndexTrie"), "try_build"),
    (Some("CatalogTrie"), "insert"),
    (Some("CatalogTrie"), "snapshot"),
    (Some("CatalogTrie"), "snapshot_at"),
    // `CatalogUpdater::{quantize, admit}` are deliberately NOT entry
    // points: they run the RQ-VAE encoder forward pass, and the tensor
    // kernels (like every NN forward, e.g. `RqVae::encode`) are outside
    // the declared panic-free surface. The trie side of admission is in.
    (Some("CatalogTrie"), "materialize"),
    (Some("CatalogTrie"), "materialize_at"),
    (Some("TrieSnapshot"), "allowed_slice"),
    (Some("TrieSnapshot"), "item_at"),
    (Some("TrieSnapshot"), "materialize"),
    (Some("Pool"), "map"),
    (Some("Pool"), "map_range"),
    (Some("Pool"), "map_reduce"),
    (Some("Pool"), "for_each_mut"),
    (Some("ScaleConfig"), "validate"),
    (Some("ScaleConfig"), "synthetic_codes"),
    (Some("ScaleConfig"), "stream_users"),
    (Some("ScaleConfig"), "materialize"),
    (Some("ScaleConfig"), "replay"),
    (None, "load_params_file"),
    (None, "save_params_file"),
];

/// One loaded, pre-processed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the scanned root.
    pub rel: PathBuf,
    /// Raw source text (annotations are parsed from this).
    pub raw: String,
    /// Comment/string-stripped source, line structure preserved.
    pub stripped: String,
    /// Per-line `#[cfg(test)]` mask.
    pub mask: Vec<bool>,
}

impl SourceFile {
    /// Pre-processes one file's source.
    pub fn new(rel: impl Into<PathBuf>, raw: impl Into<String>) -> Self {
        let raw = raw.into();
        let stripped = strip_comments_and_strings(&raw);
        let mask = test_code_mask(&stripped);
        SourceFile { rel: rel.into(), raw, stripped, mask }
    }
}

/// Loads every analyzable `.rs` file under `root`: excludes `target/`,
/// VCS metadata, `vendor/` (external stand-ins we don't own), and any
/// `tests/` directory (integration tests may assert panics on purpose;
/// `#[cfg(test)]` modules in library files are handled by the line mask
/// instead).
pub fn load_workspace(root: &Path) -> Vec<SourceFile> {
    let mut paths = Vec::new();
    walk(root, &mut paths);
    let mut out = Vec::new();
    for path in paths {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let excluded = rel
            .components()
            .any(|c| matches!(c.as_os_str().to_str(), Some("tests") | Some("vendor")));
        if excluded {
            continue;
        }
        let Ok(raw) = std::fs::read_to_string(&path) else { continue };
        out.push(SourceFile::new(rel, raw));
    }
    out
}

/// The outcome of a panicscan run.
#[derive(Debug)]
pub struct Report {
    /// Unsuppressed findings, sorted by file/line/rule. Empty = pass clean.
    pub findings: Vec<JsonFinding>,
    /// Every `allow(panic, …)` annotation honoured this run (for the audit
    /// table).
    pub allows: Vec<Allow>,
    /// Total functions scanned across the workspace.
    pub fns_total: usize,
    /// Functions reachable from the entry points.
    pub fns_reached: usize,
}

/// One function in the global graph.
struct GFn {
    file: usize,
    item: usize,
    name: String,
    impl_type: Option<String>,
    qualified: String,
}

/// Potential panic sites on one stripped line: `(rule, description)`.
fn panic_sites(line: &str) -> Vec<(&'static str, &'static str)> {
    let mut out = Vec::new();
    if line.contains(".unwrap()") {
        out.push(("panic-unwrap", ".unwrap()"));
    }
    if line.contains(".expect(") {
        out.push(("panic-expect", ".expect(..)"));
    }
    for (needle, rule, what) in [
        (concat!("panic", "!"), "panic-macro", concat!("panic", "! macro")),
        (concat!("unreachable", "!"), "panic-unreachable", concat!("unreachable", "! macro")),
    ] {
        if let Some(at) = line.find(needle) {
            let before_ident = line[..at]
                .chars()
                .next_back()
                .map(|c| c.is_ascii_alphanumeric() || c == '_')
                .unwrap_or(false);
            if !before_ident {
                out.push((rule, what));
            }
        }
    }
    // Direct index: `[` whose immediately-preceding char continues an
    // expression (identifier, `)`, `]`, `?`). Attribute `#[…]`, slice
    // types `&[T]`, and `vec![…]` all have a different preceding char.
    let b: Vec<char> = line.chars().collect();
    for i in 1..b.len() {
        if b[i] == '['
            && (b[i - 1].is_ascii_alphanumeric()
                || matches!(b[i - 1], '_' | ')' | ']' | '?'))
        {
            out.push(("panic-index", "direct slice index"));
            break;
        }
    }
    out
}

/// Runs the analysis over pre-loaded files (the unit-testable core of
/// [`scan_workspace`]).
pub fn analyze(files: &[SourceFile]) -> Report {
    let scans: Vec<ItemScan> = files.iter().map(|f| scan_items(&f.stripped)).collect();

    // Global function table plus name indices.
    let mut gfns: Vec<GFn> = Vec::new();
    for (fi, scan) in scans.iter().enumerate() {
        for (ii, item) in scan.items.iter().enumerate() {
            gfns.push(GFn {
                file: fi,
                item: ii,
                name: item.name.clone(),
                impl_type: item.impl_type.clone(),
                qualified: item.qualified(),
            });
        }
    }
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_qual: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (gi, g) in gfns.iter().enumerate() {
        match &g.impl_type {
            Some(t) => {
                methods.entry(&g.name).or_default().push(gi);
                by_qual.entry((t.as_str(), &g.name)).or_default().push(gi);
            }
            None => free.entry(&g.name).or_default().push(gi),
        }
    }

    // Per-file: map (file, item) → global index for line attribution.
    let mut global_of: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (gi, g) in gfns.iter().enumerate() {
        global_of.insert((g.file, g.item), gi);
    }

    // First pass: panic sites, plus a per-function local type map (param
    // types from the declaration, `let` bindings from the body) so method
    // receivers can be resolved precisely instead of fanning out.
    let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); gfns.len()];
    let mut sites: Vec<Vec<(usize, &'static str, &'static str)>> = vec![Vec::new(); gfns.len()];
    let mut typemaps: Vec<BTreeMap<String, String>> = vec![BTreeMap::new(); gfns.len()];
    for (gi, g) in gfns.iter().enumerate() {
        let lines: Vec<&str> = files[g.file].stripped.lines().collect();
        let decl_line = scans[g.file].items[g.item].decl_line;
        let mut decl = String::new();
        for line in lines.iter().skip(decl_line).take(24) {
            match line.find('{') {
                Some(at) => {
                    decl.push_str(&line[..at]);
                    break;
                }
                None => {
                    decl.push_str(line);
                    decl.push(' ');
                }
            }
        }
        typemaps[gi].extend(crate::parse::param_types(&decl));
    }
    // Struct field types across the whole workspace, for resolving
    // `self.field.method(…)` / `local.field.method(…)` receivers, plus a
    // per-file map of `static`/`const` binding types so `STATE.load(…)` on
    // an atomic resolves to the atomic (i.e. to no workspace method) rather
    // than fanning out to every `load`.
    let mut fields: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut statics: Vec<BTreeMap<String, String>> = Vec::with_capacity(files.len());
    for file in files {
        for (s, f, t) in crate::parse::struct_fields(&file.stripped) {
            fields.insert((s, f), t);
        }
        let mut map = BTreeMap::new();
        for line in file.stripped.lines() {
            if let Some((n, t)) = crate::parse::static_type(line) {
                map.insert(n, t);
            }
        }
        statics.push(map);
    }
    for (fi, (file, scan)) in files.iter().zip(&scans).enumerate() {
        for (li, line) in file.stripped.lines().enumerate() {
            if file.mask.get(li).copied().unwrap_or(false) {
                continue;
            }
            let Some(owner) = scan.line_owner.get(li).copied().flatten() else { continue };
            let gi = global_of[&(fi, owner)];
            for (rule, what) in panic_sites(line) {
                sites[gi].push((li + 1, rule, what));
            }
            if let Some((name, ty)) = crate::parse::let_type(line) {
                typemaps[gi].insert(name, ty);
            }
        }
    }

    // Second pass: call edges, resolved against the type maps.
    for (fi, (file, scan)) in files.iter().zip(&scans).enumerate() {
        for (li, line) in file.stripped.lines().enumerate() {
            if file.mask.get(li).copied().unwrap_or(false) {
                continue;
            }
            let Some(owner) = scan.line_owner.get(li).copied().flatten() else { continue };
            let gi = global_of[&(fi, owner)];
            for call in crate::parse::line_calls(line) {
                let by_type = |ty: &str| {
                    by_qual.get(&(ty, call.name.as_str())).cloned().unwrap_or_default()
                };
                let callees: Vec<usize> = match &call.kind {
                    CallKind::Method => {
                        let fan =
                            || methods.get(call.name.as_str()).cloned().unwrap_or_default();
                        // Walk the receiver path (`self.vocab`,
                        // `beam.tokens`, `ps`) through local types and
                        // struct fields to a final type name; None = the
                        // path could not be followed.
                        let recv_type = call.receiver.as_ref().and_then(|path| {
                            let mut segs = path.split('.');
                            let first = segs.next()?;
                            let mut ty: String = if first == "self" {
                                gfns[gi].impl_type.clone()?
                            } else if let Some(t) = typemaps[gi].get(first) {
                                t.clone()
                            } else {
                                statics[gfns[gi].file].get(first)?.clone()
                            };
                            for seg in segs {
                                ty = fields.get(&(ty, seg.to_string()))?.clone();
                            }
                            Some(ty)
                        });
                        match recv_type.as_deref() {
                            // Generic (`T`) or `impl`/`dyn Trait` receivers
                            // could be anything: fan out.
                            Some(ty) if ty.len() == 1 || ty == "impl" => fan(),
                            // A concrete nominal type resolves strictly —
                            // possibly to nothing (std types).
                            Some(ty)
                                if ty.chars().next().is_some_and(|c| c.is_ascii_uppercase()) =>
                            {
                                by_type(ty)
                            }
                            // Slices, tuples, primitives: no workspace
                            // methods can dispatch on them.
                            Some(_) => Vec::new(),
                            // Untyped receiver (interrupted chain, unknown
                            // local or field).
                            None => fan(),
                        }
                    }
                    CallKind::SelfMethod => {
                        // `self.name(…)` — only the enclosing impl type.
                        let ty = gfns[gi].impl_type.clone().unwrap_or_default();
                        by_type(&ty)
                    }
                    CallKind::Bare => free.get(call.name.as_str()).cloned().unwrap_or_default(),
                    CallKind::Qualified(q) => {
                        let ty = if q == "Self" {
                            gfns[gi].impl_type.clone().unwrap_or_default()
                        } else {
                            q.clone()
                        };
                        let direct = by_type(&ty);
                        if direct.is_empty()
                            && ty.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                        {
                            // `module::helper(…)` — a free fn behind a path.
                            free.get(call.name.as_str()).cloned().unwrap_or_default()
                        } else {
                            direct
                        }
                    }
                };
                edges[gi].extend(callees);
            }
        }
    }

    // Reachability from the entry points, remembering for each reached fn
    // the entry it came from and the BFS parent (for witness call chains).
    let mut findings: Vec<JsonFinding> = Vec::new();
    let mut reached: BTreeMap<usize, (String, Option<usize>)> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (ty, name) in ENTRY_POINTS {
        let label = match ty {
            Some(t) => format!("{t}::{name}"),
            None => (*name).to_string(),
        };
        let roots: Vec<usize> = gfns
            .iter()
            .enumerate()
            .filter(|(_, g)| g.name == *name && g.impl_type.as_deref() == *ty)
            .map(|(gi, _)| gi)
            .collect();
        if roots.is_empty() {
            findings.push(JsonFinding {
                file: PathBuf::from("(entry-points)"),
                line: 0,
                rule: "missing-entry-point".into(),
                detail: format!(
                    "declared entry point `{label}` matches no workspace fn — update \
                     panicscan::ENTRY_POINTS"
                ),
            });
        }
        for gi in roots {
            if !reached.contains_key(&gi) {
                reached.insert(gi, (label.clone(), None));
                queue.push_back(gi);
            }
        }
    }
    while let Some(gi) = queue.pop_front() {
        let entry = reached[&gi].0.clone();
        for &callee in &edges[gi] {
            if !reached.contains_key(&callee) {
                reached.insert(callee, (entry.clone(), Some(gi)));
                queue.push_back(callee);
            }
        }
    }
    // Shortest witness chain `entry → … → fn`, hop-capped to keep details
    // readable.
    let chain_of = |gi: usize| -> String {
        let mut hops = Vec::new();
        let mut cur = Some(gi);
        while let Some(i) = cur {
            hops.push(gfns[i].qualified.clone());
            cur = reached[&i].1;
        }
        hops.reverse();
        if hops.len() > 6 {
            let tail = hops.split_off(hops.len() - 2);
            hops.truncate(3);
            hops.push("…".to_string());
            hops.extend(tail);
        }
        hops.join(" → ")
    };

    // Annotations.
    let mut allows: Vec<Allow> = Vec::new();
    for file in files {
        let (mut al, malformed) = parse_allows(&file.rel, &file.raw, &file.mask);
        for (line, problem) in malformed {
            findings.push(JsonFinding {
                file: file.rel.clone(),
                line,
                rule: "malformed-allow".into(),
                detail: problem.to_string(),
            });
        }
        allows.append(&mut al);
    }

    // Findings: panic sites in reached fns, minus annotated lines.
    let reached_idx: Vec<usize> = reached.keys().copied().collect();
    for gi in reached_idx {
        let g = &gfns[gi];
        if sites[gi].is_empty() {
            continue;
        }
        let chain = chain_of(gi);
        let entry = reached[&gi].0.clone();
        for &(line, rule, what) in &sites[gi] {
            let allowed = allows.iter_mut().any(|a| {
                a.scope == Scope::Panic && a.file == files[g.file].rel && a.line == line && {
                    a.used = true;
                    true
                }
            });
            if allowed {
                continue;
            }
            findings.push(JsonFinding {
                file: files[g.file].rel.clone(),
                line,
                rule: rule.into(),
                detail: format!("{what}, reachable via `{entry}`: {chain}"),
            });
        }
    }

    // Stale allows: a panic-scope annotation that silenced nothing must go.
    allows.retain(|a| a.scope == Scope::Panic);
    for a in &allows {
        if !a.used {
            findings.push(JsonFinding {
                file: a.file.clone(),
                line: a.comment_line,
                rule: "stale-allow".into(),
                detail: format!(
                    "allow(panic) suppresses nothing (reason was: {}) — delete it",
                    a.reason
                ),
            });
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Report { findings, allows, fns_total: gfns.len(), fns_reached: reached.len() }
}

/// Loads the workspace under `root` and runs [`analyze`].
pub fn scan_workspace(root: &Path) -> Report {
    analyze(&load_workspace(root))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::new(rel, src)
    }

    #[test]
    fn reachable_unwrap_is_found_and_unreachable_is_not() {
        let src = "\
impl Engine {
    pub fn step(&mut self) {
        helper(self.n);
    }
}
fn helper(n: usize) -> usize {
    maybe(n).unwrap()
}
fn never_called() {
    oops().unwrap()
}
";
        let r = analyze(&[file("crates/x/src/lib.rs", src)]);
        let unwraps: Vec<&JsonFinding> =
            r.findings.iter().filter(|f| f.rule == "panic-unwrap").collect();
        assert_eq!(unwraps.len(), 1, "{:?}", r.findings);
        assert_eq!(unwraps[0].line, 7);
        assert!(unwraps[0].detail.contains("Engine::step"), "{}", unwraps[0].detail);
    }

    #[test]
    fn method_calls_fan_out_and_slice_index_is_detected() {
        let src = "\
impl Pool {
    pub fn map(&self, xs: &[u32]) -> u32 {
        self.inner.pick(xs)
    }
}
struct Other;
impl Other {
    fn pick(&self, xs: &[u32]) -> u32 {
        xs[0]
    }
}
";
        let r = analyze(&[file("crates/x/src/lib.rs", src)]);
        assert!(
            r.findings.iter().any(|f| f.rule == "panic-index" && f.line == 9),
            "method fan-out must reach Other::pick: {:?}",
            r.findings
        );
    }

    #[test]
    fn allow_annotation_suppresses_and_stale_allow_fails() {
        let src = format!(
            "\
fn constrained_beam_search(xs: &[u32]) -> u32 {{
    xs[0] {} lint: allow(panic, reason = \"caller guarantees non-empty\")
}}
fn unreached() {{
    {} lint: allow(panic, reason = \"nothing here\")
    let _ = 1;
}}
",
            "//", "//"
        );
        let r = analyze(&[file("crates/x/src/lib.rs", &src)]);
        assert!(
            !r.findings.iter().any(|f| f.rule == "panic-index"),
            "annotated index must be suppressed: {:?}",
            r.findings
        );
        assert!(
            r.findings.iter().any(|f| f.rule == "stale-allow" && f.line == 5),
            "unused allow must be flagged: {:?}",
            r.findings
        );
        assert_eq!(r.allows.len(), 2);
        assert!(r.allows.iter().any(|a| a.used));
    }

    #[test]
    fn missing_entry_point_is_reported() {
        let r = analyze(&[file("crates/x/src/lib.rs", "fn lonely() {}\n")]);
        assert!(
            r.findings.iter().any(|f| f.rule == "missing-entry-point"),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn test_code_and_panic_message_text_do_not_count() {
        let src = "\
fn constrained_beam_search(n: usize) -> usize {
    n + 1
}
#[cfg(test)]
mod tests {
    fn t() {
        constrained_beam_search(0).to_string().parse::<usize>().unwrap();
    }
}
";
        let r = analyze(&[file("crates/x/src/lib.rs", src)]);
        let real: Vec<&JsonFinding> =
            r.findings.iter().filter(|f| f.rule.starts_with("panic-")).collect();
        assert!(real.is_empty(), "{real:?}");
    }
}
