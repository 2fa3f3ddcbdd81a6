//! The `.dfg` text format's input surface: every reduced kernel's
//! `to_dfg_text` output, mutated line- and token-wise, and arbitrary bytes
//! (alone or spliced into a kernel's text) either parse and validate or
//! fail with a structured error that names a line of the input — never a
//! panic.

use frequenz::dataflow::Graph;
use frequenz::hls::kernels;
use proptest::prelude::*;
use std::sync::OnceLock;

mod common;
use common::{edit, mutate};

/// Every reduced kernel's `.dfg` text, with its back edges buffered so
/// `buf` suffixes occur.
fn kernel_texts() -> &'static [String] {
    static TEXTS: OnceLock<Vec<String>> = OnceLock::new();
    TEXTS.get_or_init(|| {
        kernels::all_kernels_small()
            .iter()
            .map(|k| k.seeded_graph().to_dfg_text())
            .collect()
    })
}

/// Parses and validates `text` under `catch_unwind`. A parse error must
/// carry a line of the input (1-based; one past the last line for a
/// problem found at the end of input) and name it in its message.
fn parse_or_structured_error(text: &str) -> Result<(), String> {
    let outcome = std::panic::catch_unwind(|| Graph::from_dfg_text(text).map(|g| g.validate()));
    let e = match outcome {
        Err(_) => return Err("panicked".into()),
        Ok(Ok(_)) => return Ok(()),
        Ok(Err(e)) => e,
    };
    let line = e.line();
    if line == 0 || line > text.lines().count() + 1 {
        return Err(format!("error at line {line} is outside the input: {e}"));
    }
    if !e.to_string().contains(&format!("line {line}")) {
        return Err(format!("message does not name line {line}: {e}"));
    }
    Ok(())
}

/// Inputs that once panicked, were accepted while dropping content, or
/// failed without naming a line.
#[test]
fn regression_inputs_fail_with_line_numbered_errors() {
    for text in [
        // A bracketed kind whose `]` precedes its `[` sliced out of order.
        "dfg t\nbb b\nunit a const]1[ bb0 w8\nend\n",
        "dfg t\nbb b\nunit a ][ bb0 w8\n",
        // Graph-construction errors carry the line they arose on.
        "dfg t\nbb b\nunit a entry bb0 w0\nunit a exit bb0 w0\n",
        "dfg t\nchan u0.0 -> u1.0\n",
        // End of input, or `end`, before any header.
        "",
        "# only a comment\n\n",
        "end\ndfg t\n",
        // A second header would silently discard everything before it.
        "dfg t\nbb b\ndfg u\n",
    ] {
        let got = parse_or_structured_error(text);
        assert!(got.is_ok(), "{text:?}: {}", got.unwrap_err());
        assert!(Graph::from_dfg_text(text).is_err(), "accepted {text:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Dropped, duplicated and swapped lines and tokens of a kernel text.
    #[test]
    fn mutated_kernel_text_parses_or_fails_with_a_line(
        kernel in 0usize..9,
        edits in prop::collection::vec(edit(), 1..6),
    ) {
        let text = mutate(&kernel_texts()[kernel], &edits);
        let got = parse_or_structured_error(&text);
        prop_assert!(got.is_ok(), "{}:\n{text}", got.unwrap_err());
    }

    /// Arbitrary bytes, decoded lossily.
    #[test]
    fn arbitrary_bytes_parse_or_fail_with_a_line(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let got = parse_or_structured_error(&text);
        prop_assert!(got.is_ok(), "{}:\n{text:?}", got.unwrap_err());
    }

    /// Arbitrary bytes spliced into a kernel text, so they reach the
    /// per-directive parsers behind a valid header.
    #[test]
    fn spliced_bytes_parse_or_fail_with_a_line(
        kernel in 0usize..9,
        at in any::<usize>(),
        bytes in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        let base = &kernel_texts()[kernel];
        let mut at = at % (base.len() + 1);
        while !base.is_char_boundary(at) {
            at -= 1;
        }
        let text = format!("{}{}{}", &base[..at], String::from_utf8_lossy(&bytes), &base[at..]);
        let got = parse_or_structured_error(&text);
        prop_assert!(got.is_ok(), "{}:\n{text:?}", got.unwrap_err());
    }
}
