//! Hostile input must produce an error, never a panic. Arbitrary bytes,
//! and truncations, byte splices and value rewrites of every shipped
//! scenario and description, are fed to both loaders and the linter;
//! each call must return (`Ok` or `Err`), never unwind.

use std::path::Path;
use std::sync::OnceLock;

use hypernel_campaign::lint_source;
use hypernel_campaign::scenario::Scenario;
use hypernel_campaign::toml::toml_files;
use hypernel_compose::ComposeDoc;
use proptest::prelude::*;

/// Every shipped TOML file: the corpus, the example scenarios and the
/// example compose descriptions.
fn shipped() -> &'static [Vec<u8>] {
    static FILES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    FILES.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        ["corpus", "examples/scenarios", "examples/compose"]
            .iter()
            .flat_map(|dir| toml_files(&root.join(dir)).expect("shipped dir readable"))
            .map(|path| std::fs::read(path).expect("readable"))
            .collect()
    })
}

fn pick(index: usize) -> &'static [u8] {
    let files = shipped();
    &files[index % files.len()]
}

/// Feeds one input to every parser entry point; returning is the test.
fn feed(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = Scenario::from_toml(&text);
    let _ = ComposeDoc::from_toml(&text);
    let _ = lint_source(Some("hostile"), &text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        feed(&bytes);
    }

    #[test]
    fn truncated_shipped_files_never_panic(file in any::<usize>(), cut in any::<usize>()) {
        let source = pick(file);
        feed(&source[..cut % (source.len() + 1)]);
    }

    #[test]
    fn spliced_shipped_files_never_panic(
        host in any::<usize>(),
        at in any::<usize>(),
        donor in any::<usize>(),
        from in any::<usize>(),
        len in 0usize..128,
    ) {
        let (host, donor) = (pick(host), pick(donor));
        let at = at % (host.len() + 1);
        let from = from % (donor.len() + 1);
        let chunk = &donor[from..(from + len).min(donor.len())];
        feed(&[&host[..at], chunk, &host[at..]].concat());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Rewrites each `key = value` line of every shipped file, one at a
    /// time, with an arbitrary integer — the shape that reaches range
    /// checks and the arithmetic behind them rather than the syntax
    /// check.
    #[test]
    fn rewritten_values_never_panic(value in any::<i64>()) {
        for source in shipped() {
            let text = String::from_utf8_lossy(source);
            let lines: Vec<&str> = text.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                let Some((key, _)) = line.split_once('=') else {
                    continue;
                };
                let value_line = format!("{key}= {value}");
                let mut rewritten = lines.clone();
                rewritten[i] = &value_line;
                feed(rewritten.join("\n").as_bytes());
            }
        }
    }
}
