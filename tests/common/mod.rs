//! Shared helpers for the integration tests' input-surface fuzzers.

use proptest::prelude::*;

/// One edit of a line-oriented text (BLIF, `.dfg`): indices wrap modulo the
/// line or token count.
#[derive(Debug, Clone)]
pub enum Edit {
    DropLine(usize),
    DupLine(usize),
    SwapLines(usize, usize),
    DropToken(usize, usize),
    DupToken(usize, usize),
    SwapTokens((usize, usize), (usize, usize)),
}

pub fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        any::<usize>().prop_map(Edit::DropLine),
        any::<usize>().prop_map(Edit::DupLine),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Edit::SwapLines(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(l, t)| Edit::DropToken(l, t)),
        (any::<usize>(), any::<usize>()).prop_map(|(l, t)| Edit::DupToken(l, t)),
        (
            any::<usize>(),
            any::<usize>(),
            any::<usize>(),
            any::<usize>()
        )
            .prop_map(|(a, i, b, j)| Edit::SwapTokens((a, i), (b, j))),
    ]
}

/// Applies `edits` to `text`, line- and whitespace-token-wise.
pub fn mutate(text: &str, edits: &[Edit]) -> String {
    let mut lines: Vec<Vec<String>> = text
        .lines()
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect();
    for e in edits {
        if lines.is_empty() {
            break;
        }
        let n = lines.len();
        match *e {
            Edit::DropLine(l) => {
                lines.remove(l % n);
            }
            Edit::DupLine(l) => {
                let line = lines[l % n].clone();
                lines.insert(l % n, line);
            }
            Edit::SwapLines(a, b) => lines.swap(a % n, b % n),
            Edit::DropToken(l, t) => {
                let line = &mut lines[l % n];
                if !line.is_empty() {
                    let t = t % line.len();
                    line.remove(t);
                }
            }
            Edit::DupToken(l, t) => {
                let line = &mut lines[l % n];
                if !line.is_empty() {
                    let t = t % line.len();
                    let tok = line[t].clone();
                    line.insert(t, tok);
                }
            }
            Edit::SwapTokens((a, i), (b, j)) => {
                let (a, b) = (a % n, b % n);
                if lines[a].is_empty() || lines[b].is_empty() {
                    continue;
                }
                let (i, j) = (i % lines[a].len(), j % lines[b].len());
                let tok = std::mem::take(&mut lines[a][i]);
                lines[a][i] = std::mem::replace(&mut lines[b][j], tok);
            }
        }
    }
    lines.iter().map(|l| l.join(" ") + "\n").collect()
}
