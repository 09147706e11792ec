//! The documents may only name code that exists. Plain text search, no
//! parser: every backticked source path in the four documents below
//! must be a file, and the last segment of every backticked
//! `crate::path::Item` / `Type::method` must occur as a word in some
//! `.rs` file of the tree. A sentence that names a deleted thing on
//! purpose (a "Paths not taken" row) lists the name in [`HISTORICAL`].

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

/// Where a named item may live.
const CODE_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Backticked spans that name deleted code on purpose, verbatim.
const HISTORICAL: [&str; 6] = [
    "StudyConfig::collection_shards ≥ 2",
    "store::mmap",
    "SetBytes::{Owned, Mapped}",
    "telescope::actors",
    "Actor::scan_sourced",
    "Snapshot::deterministic()",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Every `.rs` file under `dir`, recursively, except this one.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        // This file is left out: its allowlist must not vouch for itself.
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") && !path.ends_with(file!()) {
            out.push(path);
        }
    }
}

/// Every identifier-shaped word of every `.rs` file under the roots.
fn code_words() -> HashSet<String> {
    let mut files = Vec::new();
    for dir in CODE_ROOTS {
        rust_files(&root().join(dir), &mut files);
    }
    let mut words = HashSet::new();
    for file in files {
        let text = fs::read_to_string(&file).expect("source files are UTF-8");
        words.extend(
            text.split(|c| !is_ident_char(c))
                .filter(|w| !w.is_empty())
                .map(str::to_owned),
        );
    }
    words
}

/// The inline code spans of a Markdown text, fenced blocks skipped.
fn code_spans(text: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            spans.extend(line.split('`').skip(1).step_by(2));
        }
    }
    spans
}

/// The source file a span names, if it names exactly one: a literal
/// `tests/…rs`, `examples/…rs` or `crates/<c>/{src,tests}/…rs`, with an
/// optional `:line` suffix.
fn named_file(span: &str) -> Option<&str> {
    let path = &span[..span.find(".rs")? + 3];
    let rest = &span[path.len()..];
    let literal = path
        .chars()
        .all(|c| is_ident_char(c) || matches!(c, '/' | '.' | '-'));
    let rooted = path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.strip_prefix("crates/").is_some_and(|p| {
            p.split_once('/')
                .is_some_and(|(_, p)| p.starts_with("src/") || p.starts_with("tests/"))
        });
    (literal && rooted && (rest.is_empty() || rest.starts_with(':'))).then_some(path)
}

/// The item names a `a::b::Item`, `Type::method(..)` or
/// `a::b::{x, y}` span ends in; empty when the span is no such path.
fn named_items(span: &str) -> Vec<&str> {
    let head_len = span
        .find(|c| !is_ident_char(c) && c != ':')
        .unwrap_or(span.len());
    let (head, rest) = span.split_at(head_len);
    let Some((_, last)) = head.rsplit_once("::") else {
        return Vec::new();
    };
    let is_path = head
        .split("::")
        .enumerate()
        .all(|(i, seg)| !seg.contains(':') && (!seg.is_empty() || i > 0));
    if !is_path || head.starts_with(|c: char| c.is_ascii_digit()) {
        return Vec::new();
    }
    if !last.is_empty() {
        return vec![last];
    }
    // `path::{a, b}`: one level of braces, identifiers only.
    rest.strip_prefix('{')
        .and_then(|r| r.split_once('}'))
        .map(|(list, _)| {
            list.split(',')
                .map(|item| item.trim().trim_end_matches("()"))
                .filter(|item| !item.is_empty() && item.chars().all(is_ident_char))
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn documents_name_only_files_and_items_that_exist() {
    let words = code_words();
    let mut stale = Vec::new();
    let (mut files, mut items) = (0, 0);
    for doc in DOCS {
        let text = fs::read_to_string(root().join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for span in code_spans(&text) {
            if HISTORICAL.contains(&span) {
                continue;
            }
            if let Some(path) = named_file(span) {
                files += 1;
                if !root().join(path).is_file() {
                    stale.push(format!("{doc}: `{span}` — no file {path}"));
                }
                continue;
            }
            for item in named_items(span) {
                items += 1;
                if !words.contains(item) {
                    stale.push(format!("{doc}: `{span}` — `{item}` occurs in no .rs file"));
                }
            }
        }
    }
    assert!(
        stale.is_empty(),
        "documents name dead code:\n{}",
        stale.join("\n")
    );
    // The extraction itself must keep finding things to check.
    assert!(files > 20 && items > 100, "{files} files, {items} items");
}

#[test]
fn extraction_reads_the_forms_the_documents_use() {
    assert_eq!(
        code_spans("a `x::y` b `tests/t.rs`\n```\n`skipped::z`\n```\n`k`"),
        ["x::y", "tests/t.rs", "k"]
    );
    assert_eq!(
        named_file("tests/golden/mod.rs"),
        Some("tests/golden/mod.rs")
    );
    assert_eq!(
        named_file("crates/actors/src/archetypes.rs:78"),
        Some("crates/actors/src/archetypes.rs")
    );
    assert_eq!(named_file("crates/*/src/lib.rs"), None);
    assert_eq!(named_file("tests/<file>.rs"), None);
    assert_eq!(named_file("benchmark/src/trace.rs"), None);
    assert_eq!(named_items("ntppool::PoolServer::handle"), ["handle"]);
    assert_eq!(named_items("Vantage::query_all_via(..)"), ["query_all_via"]);
    assert_eq!(named_items("Study::{run, resume()}"), ["run", "resume"]);
    assert!(named_items("Vec<u8>").is_empty());
    assert!(named_items("10::20").is_empty());
    assert!(named_items("a:::b").is_empty());
}
