//! The documents may only name code that exists. Plain text search, no
//! parser: every backticked source path in the four documents below
//! must be a file, and the last segment of every backticked
//! `crate::path::Item` / `Type::method`, and every bare backticked
//! CamelCase name, must occur as a word outside the comments of some
//! `.rs` file of the tree. A path that starts with a crate name must
//! also resolve module by module to a file of that crate. A sentence that names a deleted thing on
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
const HISTORICAL: [&str; 55] = [
    "StudyConfig::collection_shards ≥ 2",
    "store::mmap",
    "SetBytes::{Owned, Mapped}",
    "telescope::actors",
    "Actor::scan_sourced",
    "Snapshot::deterministic()",
    "PipelineMode::Streaming",
    "ServiceConfig::with_workers",
    "Slot::Queued(placeholder())",
    "trait Source",
    "DnsSource",
    "RdnsSource",
    "TracerouteSource",
    "ArchiveSource",
    "AliasedSource",
    "AddrResolver",
    "World::addr_resolver",
    "Totals",
    "RunStats::from_registry",
    "Registry::inc",
    "scanner::metrics",
    "Archive::optimize",
    "StudySession::maintain",
    "DerivedCells::seed",
    "PipelineMode",
    "StreamingScanner",
    "Bank",
    "AtomicHistogram",
    "TransportStats",
    "KeyHasher",
    "KeyHashMap",
    "SpanTimer",
    "SharedSetKey",
    "netsim::Instrumented",
    "Vantage::query_all_instrumented",
    "TransportTotals::snapshot",
    "TokenBucket",
    "Ecosystem",
    "Phase",
    "TickCtx",
    "SourcingMachine",
    "PrefixWalkMachine",
    "HitlistReuseMachine",
    "BgpAdaptiveMachine",
    "CaptureLog",
    "telescope::CaptureLog",
    "RequestMemo",
    "ntppool::shard",
    "ntppool::NtpDaemon",
    "Packet::{control,private}_{request,response}",
    "Engine::last_scan",
    "ScanPolicy::cooldown",
    "ScanPolicy::{protocols, base_delay, protocol_spacing}",
    "RetryPolicy::{tcp_timeout, tls_timeout, udp_timeout, backoff}",
    "Engine::policy",
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

/// `text` with its `//` and `/* */` comments blanked out. String and
/// character literals are skipped whole, so a `//` inside one stays.
fn strip_comments(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < chars.len() {
        let rest = &chars[i..];
        let skip = match rest {
            ['/', '/', ..] => rest.iter().position(|&c| c == '\n').unwrap_or(rest.len()),
            ['/', '*', ..] => rest
                .windows(2)
                .position(|w| w == ['*', '/'])
                .map_or(rest.len(), |end| end + 2),
            _ => 0,
        };
        if skip > 0 {
            out.push(' ');
            i += skip;
            continue;
        }
        // A literal is copied through to its closing quote.
        let literal = match rest {
            ['"', ..] => rest[1..]
                .iter()
                .scan(false, |escaped, &c| {
                    let close = c == '"' && !*escaped;
                    *escaped = c == '\\' && !*escaped;
                    Some(close)
                })
                .position(|close| close)
                .map_or(rest.len(), |end| end + 2),
            ['\'', '\\', _, ..] => rest[3..]
                .iter()
                .position(|&c| c == '\'')
                .map_or(rest.len(), |end| end + 4),
            ['\'', _, '\'', ..] => 3,
            _ => 1,
        };
        out.extend(&rest[..literal]);
        i += literal;
    }
    out
}

/// Every identifier-shaped word outside the comments of every `.rs`
/// file under the roots.
fn code_words() -> HashSet<String> {
    let mut files = Vec::new();
    for dir in CODE_ROOTS {
        rust_files(&root().join(dir), &mut files);
    }
    let mut words = HashSet::new();
    for file in files {
        let text = fs::read_to_string(&file).expect("source files are UTF-8");
        words.extend(
            strip_comments(&text)
                .split(|c| !is_ident_char(c))
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

/// The `a::b::…` head of a path span and the text after it; `None`
/// when the span does not start with a path.
fn path_head(span: &str) -> Option<(&str, &str)> {
    let head_len = span
        .find(|c| !is_ident_char(c) && c != ':')
        .unwrap_or(span.len());
    let (head, rest) = span.split_at(head_len);
    let is_path = head.contains("::")
        && head
            .split("::")
            .enumerate()
            .all(|(i, seg)| !seg.contains(':') && (!seg.is_empty() || i > 0));
    (is_path && !head.starts_with(|c: char| c.is_ascii_digit())).then_some((head, rest))
}

/// The items of a `{a, b()}` list at the front of `rest`: one level of
/// braces, identifiers only.
fn braced(rest: &str) -> Vec<&str> {
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

/// The item names a `a::b::Item`, `Type::method(..)` or
/// `a::b::{x, y}` span ends in, or the span itself when it is a bare
/// CamelCase name (`Ideal`, `TransportTotals`); empty otherwise.
fn named_items(span: &str) -> Vec<&str> {
    if is_camel_case(span) {
        return vec![span];
    }
    let Some((head, rest)) = path_head(span) else {
        return Vec::new();
    };
    match head.rsplit_once("::") {
        Some((_, "")) => braced(rest),
        Some((_, last)) => vec![last],
        None => Vec::new(),
    }
}

/// The identifier-shaped words outside the comments of one file.
fn file_words(path: &Path) -> HashSet<String> {
    let text = fs::read_to_string(path).expect("source files are UTF-8");
    strip_comments(&text)
        .split(|c| !is_ident_char(c))
        .filter(|w| !w.is_empty())
        .map(str::to_owned)
        .collect()
}

/// The file of module `name` inside `dir`: `<name>.rs` or
/// `<name>/mod.rs`.
fn module_file(dir: &Path, name: &str) -> Option<PathBuf> {
    [
        dir.join(format!("{name}.rs")),
        dir.join(name).join("mod.rs"),
    ]
    .into_iter()
    .find(|m| m.is_file())
}

/// Why a `crate::module::…` span does not resolve in the tree, if it
/// does not. A first segment that names a crate (`timetoscan` is
/// `crates/core`) starts at its `lib.rs`; each further segment with a
/// module file descends into it, and the first segment without one, or
/// each braced item after the last module, must occur as a word in the
/// module file reached. `None` also for a span that names no crate.
fn unresolved_module(span: &str) -> Option<String> {
    let (head, rest) = path_head(span)?;
    let mut path = head.split("::").filter(|seg| !seg.is_empty());
    let krate = path.next()?;
    let krate = if krate == "timetoscan" { "core" } else { krate };
    let mut dir = root().join("crates").join(krate).join("src");
    if !dir.is_dir() {
        return None;
    }
    let mut file = dir.join("lib.rs");
    let missing = |file: &Path, name: &str| {
        let at = file.strip_prefix(root()).unwrap_or(file).display();
        Some(format!("no module file for `{name}`, nor the word in {at}"))
    };
    for name in path {
        match module_file(&dir, name) {
            Some(m) => {
                file = m;
                dir = dir.join(name);
            }
            None if file_words(&file).contains(name) => return None,
            None => return missing(&file, name),
        }
    }
    let words = file_words(&file);
    braced(rest)
        .into_iter()
        .find(|name| module_file(&dir, name).is_none() && !words.contains(*name))
        .and_then(|name| missing(&file, name))
}

/// An identifier that starts with a capital and has a lower-case letter:
/// a type, trait or variant name, not a constant or an acronym.
fn is_camel_case(span: &str) -> bool {
    span.starts_with(|c: char| c.is_ascii_uppercase())
        && span.chars().any(|c| c.is_ascii_lowercase())
        && span.chars().all(|c| c.is_ascii_alphanumeric())
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
            if let Some(why) = unresolved_module(span) {
                stale.push(format!("{doc}: `{span}` — {why}"));
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
    assert_eq!(named_items("TransportTotals"), ["TransportTotals"]);
    assert!(named_items("NTP_PORT").is_empty());
    assert!(named_items("FRITZ!Box").is_empty());
    assert!(named_items("Vec<u8>").is_empty());
    assert!(named_items("10::20").is_empty());
    assert!(named_items("a:::b").is_empty());
    assert_eq!(unresolved_module("ntppool::PoolServer::handle"), None);
    assert_eq!(unresolved_module("wire::ntp::Packet::emit"), None);
    assert_eq!(unresolved_module("timetoscan::checkpoint"), None);
    assert_eq!(unresolved_module("netsim::mix2"), None);
    assert_eq!(unresolved_module("store::{segment, Archive}"), None);
    assert_eq!(unresolved_module("std::thread::spawn"), None);
    assert!(unresolved_module("ntppool::shard").is_some());
    assert!(unresolved_module("ntppool::shard::ShardSet").is_some());
    assert!(unresolved_module("store::{segment, Gone}").is_some());
    let code = "let a = \"x // y\"; // Gone\nlet b = '\"'; /* Gone */ let c = '\\''; // Gone";
    let stripped = strip_comments(code);
    let words: Vec<&str> = stripped
        .split(|c| !is_ident_char(c))
        .filter(|w| !w.is_empty())
        .collect();
    assert_eq!(words, ["let", "a", "x", "y", "let", "b", "let", "c"]);
}
