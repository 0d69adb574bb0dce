//! Public-surface census: every `pub` item under `crates/*/src` has a
//! user, and the surface only shrinks unless a change says why.
//!
//! An item counts when its declaration line reads `pub fn`, `pub
//! struct`, `pub enum`, `pub trait`, `pub type`, `pub const`, `pub
//! static` or `pub union` (qualifiers such as `const fn` / `unsafe fn`
//! included). `pub(crate)` / `pub(super)` items, fields, `pub use` /
//! `pub mod` and anything inside a `#[cfg(test)]` item are not part of
//! the surface.
//!
//! A *user* is a whole-identifier match of the item's name in a
//! non-comment part of a line of another `.rs` file under
//! `crates/` (other crates, their `tests/` and examples),
//! the root `src/`, `tests/` and `examples/`, and the benchmark crate's
//! `src/` and `tests/`. A name is only a name, so a common one (`new`,
//! `len`) always has users; the census is a floor on what is unused,
//! not a proof that the rest is.
//!
//! Run `cargo test -q --test public_surface -- --nocapture` for the
//! per-crate table.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;

/// The most `pub` item declarations `crates/*/src` may hold. Lower it
/// when the surface shrinks; raising it needs a reason in the change.
/// Two of them are `FrameHeader::to_bytes` / `from_bytes`: the one
/// header codec of socket frames and ring records, which `converse-wire`
/// calls across the crate boundary. Three are `frame::Decoder`, its
/// `headerless` constructor and its `read`: the one decoder of socket
/// and CCS frames, which the hub and `converse-ccs` call.
const MAX_PUB_ITEMS: usize = 699;

/// Declarations no other file names, each with why it stays `pub`:
/// `(file, item, reason)`.
const ALLOWED_UNUSED: &[(&str, &str, &str)] = &[
    (
        "crates/fiber/src/lib.rs",
        "BoxedEntry",
        "the default entry type of Fiber, named by writing Fiber alone",
    ),
    (
        "crates/machine/src/gptr.rs",
        "GetHandle",
        "returned by Pe::get_async and handed back unnamed",
    ),
    (
        "crates/machine/src/gptr.rs",
        "PutHandle",
        "returned by Pe::put_async and handed back unnamed",
    ),
    (
        "crates/machine/src/scatter.rs",
        "ScatterHandle",
        "returned by Pe::scatter_register and handed back unnamed",
    ),
    (
        "crates/msg/src/lib.rs",
        "DecodeError",
        "the error of Message::from_bytes and from_block",
    ),
    (
        "crates/msgmgr/src/lib.rs",
        "Stored",
        "returned by MsgManager::get and probe; callers read its fields",
    ),
    (
        "crates/msgmgr/src/lib.rs",
        "Tags",
        "the tags field of Stored; callers read it as a slice",
    ),
    (
        "crates/sm/src/lib.rs",
        "SmMsg",
        "returned by the SM receives; callers read its fields",
    ),
    (
        "crates/sm/src/mpi.rs",
        "MpiMsg",
        "returned by Mpi::recv; callers read its fields",
    ),
    (
        "crates/sync/src/lib.rs",
        "NotOwner",
        "the error of CtsLock::unlock by a context that does not hold it",
    ),
    (
        "crates/threads/src/lib.rs",
        "StackPoolStats",
        "returned by CthRuntime::stack_pool_stats; callers read its fields",
    ),
    (
        "crates/trace/src/lib.rs",
        "Record",
        "the element of MemorySink::records; callers read its fields",
    ),
];

/// Directories whose `.rs` files are scanned, relative to the workspace
/// root. Declarations come from `crates/*/src` only; users from all.
const ROOTS: &[&str] = &[
    "crates",
    "src",
    "tests",
    "examples",
    "benchmark/src",
    "benchmark/tests",
];

/// One `pub` declaration and whether another file names it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Decl {
    krate: String,
    file: String,
    name: String,
    used: bool,
}

/// The file's code, line by line: `//` comments and (nesting) `/* */`
/// comments removed. Every newline is kept, so line `k` of the result
/// is line `k` of the source. String literals stay code: a name written
/// only inside one counts as a use.
fn code_lines(src: &str) -> Vec<String> {
    let mut code = String::with_capacity(src.len());
    let (mut depth, mut line_comment) = (0, false);
    let mut chars = src.chars().peekable();
    while let Some(ch) = chars.next() {
        match (ch, chars.peek()) {
            ('\n', _) => {
                line_comment = false;
                code.push('\n');
            }
            _ if line_comment => {}
            ('/', Some('*')) => {
                depth += 1;
                chars.next();
            }
            ('*', Some('/')) if depth > 0 => {
                depth -= 1;
                chars.next();
            }
            _ if depth > 0 => {}
            ('/', Some('/')) => line_comment = true,
            _ => code.push(ch),
        }
    }
    code.lines().map(str::to_string).collect()
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The whole identifiers of one line of code.
fn idents(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !is_ident_char(c))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// The item name a `pub` declaration line declares, if it is one.
fn declared_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let mut words = rest.split_whitespace().peekable();
    while let Some(w) = words.next() {
        match w {
            "unsafe" | "async" | "extern" => continue,
            // An ABI string: `pub extern "C" fn`.
            _ if w.starts_with('"') => continue,
            "const" if matches!(words.peek(), Some(&("fn" | "unsafe" | "async" | "extern"))) => {
                continue
            }
            "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static" | "union" => {
                let mut name = words.next()?;
                if w == "static" && name == "mut" {
                    name = words.next()?;
                }
                let end = name.find(|c: char| !is_ident_char(c)).unwrap_or(name.len());
                let name = &name[..end];
                return (!name.is_empty()).then_some(name);
            }
            _ => return None,
        }
    }
    None
}

/// The `pub` item declarations of one file's code lines, skipping every
/// item under `#[cfg(test)]`.
fn declarations(lines: &[String]) -> Vec<&str> {
    let mut names = Vec::new();
    let mut pending_test = false;
    // Inside a `#[cfg(test)]` item: (brace depth, whether it opened).
    let mut skipping: Option<(i64, bool)> = None;
    for line in lines {
        let t = line.trim();
        if pending_test && !t.is_empty() && !t.starts_with("#[") {
            // The first line of the item the attribute applies to.
            pending_test = false;
            skipping = Some((0, false));
        }
        if let Some((depth, opened)) = skipping.as_mut() {
            *depth += t.matches('{').count() as i64 - t.matches('}').count() as i64;
            *opened |= t.contains('{');
            if (*opened && *depth <= 0) || (!*opened && (t.ends_with(';') || t.ends_with(','))) {
                skipping = None;
            }
            continue;
        }
        pending_test |= t.starts_with("#[cfg(test)]");
        if pending_test {
            continue;
        }
        if let Some(name) = declared_name(line) {
            names.push(name);
        }
    }
    names
}

/// The crate a path under `crates/<name>/src/` declares items for.
fn declaring_crate(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (krate, tail) = rest.split_once('/')?;
    tail.starts_with("src/").then_some(krate)
}

/// Run the census over `(path, source)` pairs, paths relative to the
/// workspace root with `/` separators.
fn census(files: &[(String, String)]) -> Vec<Decl> {
    let code: Vec<Vec<String>> = files.iter().map(|(_, src)| code_lines(src)).collect();
    // Identifier → the files (by index) whose code names it.
    let mut named_in: HashMap<&str, BTreeSet<usize>> = HashMap::new();
    for (i, lines) in code.iter().enumerate() {
        for line in lines {
            for id in idents(line) {
                named_in.entry(id).or_default().insert(i);
            }
        }
    }
    let mut decls = Vec::new();
    for (i, (path, _)) in files.iter().enumerate() {
        let Some(krate) = declaring_crate(path) else {
            continue;
        };
        for name in declarations(&code[i]) {
            let used = named_in
                .get(name)
                .is_some_and(|fs| fs.iter().any(|&f| f != i));
            decls.push(Decl {
                krate: krate.to_string(),
                file: path.clone(),
                name: name.to_string(),
                used,
            });
        }
    }
    decls
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(root, &p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p.strip_prefix(root).expect("under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            let src = std::fs::read_to_string(&p).expect("read source file");
            out.push((rel, src));
        }
    }
}

#[test]
fn every_public_item_has_a_user() {
    let started = std::time::Instant::now();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for r in ROOTS {
        collect_rs(root, &root.join(r), &mut files);
    }
    // The allow-list above names items without using them.
    files.retain(|(path, _)| path != file!());
    let decls = census(&files);

    let mut per_crate: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for d in &decls {
        let row = per_crate.entry(&d.krate).or_default();
        row.0 += 1;
        row.1 += usize::from(!d.used);
    }
    println!("{:<12} {:>6} {:>8}", "crate", "pub", "unused");
    for (k, (n, unused)) in &per_crate {
        println!("{k:<12} {n:>6} {unused:>8}");
    }
    let unused: BTreeSet<(&str, &str)> = decls
        .iter()
        .filter(|d| !d.used)
        .map(|d| (d.file.as_str(), d.name.as_str()))
        .collect();
    println!("{:<12} {:>6} {:>8}", "total", decls.len(), unused.len());
    println!("scanned {} files in {:?}", files.len(), started.elapsed());

    let allowed: BTreeSet<(&str, &str)> = ALLOWED_UNUSED.iter().map(|&(f, n, _)| (f, n)).collect();
    let new: Vec<_> = unused.difference(&allowed).collect();
    let stale: Vec<_> = allowed.difference(&unused).collect();
    assert!(
        new.is_empty() && stale.is_empty(),
        "public items with no user outside their file (make them private, delete them, \
         or allow-list them with a reason): {new:?}; allow-list entries that now have \
         a user or are gone: {stale:?}"
    );
    assert!(
        decls.len() <= MAX_PUB_ITEMS,
        "{} pub item declarations under crates/*/src, more than the pinned {MAX_PUB_ITEMS}",
        decls.len()
    );
}

#[test]
fn allow_list_entries_carry_reasons() {
    for (file, name, reason) in ALLOWED_UNUSED {
        assert!(
            reason.split_whitespace().count() >= 3,
            "{file}: {name} needs a one-line reason"
        );
    }
}

#[test]
fn scanner_verdicts_on_a_synthetic_tree() {
    let lib = r#"
//! pub fn in_module_docs() {}
pub fn used_elsewhere() {}
pub fn unused() {}
pub(crate) fn crate_only() {}
pub(super) struct SuperOnly;
pub const fn const_fn_used() {}
pub struct Fields {
    pub field_not_an_item: u32,
}
/// pub fn in_doc_comment() {}
pub static mut COUNTER: u32 = 0;
#[cfg(test)]
mod tests {
    pub fn test_helper() {}
    #[test]
    fn t() {}
}
pub enum AfterTests { A }
pub extern "C" fn extern_unused() {}
"#;
    let other = r#"
use a::{used_elsewhere, const_fn_used};
// COUNTER is only named in a comment here
/* and Fields in a block /* nested */ comment
   over two lines, with unused */
fn f() { let _ = "AfterTests"; }
"#;
    let decls = census(&[
        ("crates/a/src/lib.rs".into(), lib.into()),
        ("crates/b/src/lib.rs".into(), other.into()),
        (
            "examples/unrelated.rs".into(),
            "fn main() { unused_ish(); }".into(),
        ),
    ]);
    let verdicts: Vec<(&str, bool)> = decls.iter().map(|d| (d.name.as_str(), d.used)).collect();
    assert_eq!(
        verdicts,
        [
            ("used_elsewhere", true),
            ("unused", false),
            ("const_fn_used", true),
            ("Fields", false),
            ("COUNTER", false),
            ("AfterTests", true),
            ("extern_unused", false),
        ]
    );
    assert!(decls.iter().all(|d| d.krate == "a"));
}
