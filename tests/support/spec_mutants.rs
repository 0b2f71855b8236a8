//! Single-member mutations of a JSON spec document, and the digest their
//! parse outcomes are pinned with. `crates/bench/tests/platform_guard.rs`
//! runs them over the built-in platform files and
//! `crates/telemetry/tests/spec_schema.rs` over two campaign bodies; both
//! include this file with `#[path]`.

use std::collections::BTreeMap;

use serscale_types::json::{self, JsonValue};

/// FNV-1a-64 over length-prefixed text.
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds the byte length of `text`, then its bytes.
    pub fn text(&mut self, text: &str) {
        let length = (text.len() as u64).to_le_bytes();
        for byte in length.into_iter().chain(text.bytes()) {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The key every mutation corpus adds to each object in turn.
const UNLISTED: &str = "unlisted";

/// One mutated copy of a document.
pub struct Mutant {
    /// The mutated member's dotted path and what was done to it.
    pub label: String,
    /// The mutated document.
    pub body: String,
    /// Whether a member's value was replaced, as opposed to the member
    /// being removed or [`UNLISTED`] being added.
    pub replaced: bool,
}

/// Every single-member mutation of `doc`, in document order. Each object
/// gains [`UNLISTED`]; each of its members is replaced by `null`, by a
/// value of another JSON type and by [`edge_values`] of its own type, and
/// is removed. Array items are not members: their own members are
/// mutated instead.
pub fn mutants(doc: &JsonValue) -> Vec<Mutant> {
    let mut out = Vec::new();
    walk(doc, "", &|whole| whole, &mut out);
    out
}

/// Mutates the members below `value`, which sits at `path`; `rebuild`
/// puts a changed `value` back into a copy of the whole document.
fn walk(
    value: &JsonValue,
    path: &str,
    rebuild: &dyn Fn(JsonValue) -> JsonValue,
    out: &mut Vec<Mutant>,
) {
    match value {
        JsonValue::Object(map) => {
            let with = |key: &str, member: Option<JsonValue>| {
                let mut map = map.clone();
                match member {
                    Some(member) => map.insert(key.to_string(), member),
                    None => map.remove(key),
                };
                rebuild(JsonValue::Object(map))
            };
            let at = |key: &str| {
                if path.is_empty() {
                    key.to_string()
                } else {
                    format!("{path}.{key}")
                }
            };
            let mut push = |label: String, doc: JsonValue, replaced: bool| {
                let mut body = String::new();
                render(&doc, &mut body);
                out.push(Mutant {
                    label,
                    body,
                    replaced,
                });
            };
            push(
                format!("{} added", at(UNLISTED)),
                with(UNLISTED, Some(JsonValue::Bool(true))),
                false,
            );
            for (key, member) in map {
                for replacement in edge_values(member) {
                    let mut shown = String::new();
                    render(&replacement, &mut shown);
                    push(
                        format!("{} = {shown}", at(key)),
                        with(key, Some(replacement)),
                        true,
                    );
                }
                push(format!("{} removed", at(key)), with(key, None), false);
            }
            for (key, member) in map {
                walk(member, &at(key), &|changed| with(key, Some(changed)), out);
            }
        }
        JsonValue::Array(items) => {
            for (at, item) in items.iter().enumerate() {
                let rebuild_item = |changed| {
                    let mut items = items.clone();
                    items[at] = changed;
                    rebuild(JsonValue::Array(items))
                };
                walk(item, &format!("{path}[{at}]"), &rebuild_item, out);
            }
        }
        _ => {}
    }
}

/// The replacements for a member holding `value`: `null`, a value of
/// another type, and the edges of its own type — the [`adversarial`]
/// numbers, an empty and a non-printable string, an empty array or
/// object.
fn edge_values(value: &JsonValue) -> Vec<JsonValue> {
    let mut out = vec![JsonValue::Null];
    match value {
        JsonValue::Number(n) => {
            out.push(JsonValue::String("1".to_string()));
            out.extend(adversarial(*n).map(JsonValue::Number));
        }
        JsonValue::String(_) => out.extend([
            JsonValue::Number(1.0),
            JsonValue::String(String::new()),
            JsonValue::String("\u{1b}[2J".to_string()),
        ]),
        JsonValue::Array(_) => out.extend([JsonValue::Number(1.0), JsonValue::Array(Vec::new())]),
        JsonValue::Object(_) => {
            out.extend([JsonValue::Number(1.0), JsonValue::Object(BTreeMap::new())]);
        }
        JsonValue::Null | JsonValue::Bool(_) => {}
    }
    out
}

/// The adversarial replacements for a numeric field holding `original`:
/// signed zeros, extreme magnitudes, the edge of exact integers, negatives
/// and values off the 5 mV / 300 MHz grids.
fn adversarial(original: f64) -> [f64; 14] {
    [
        0.0,
        -0.0,
        1e-300,
        -1e-300,
        9_007_199_254_740_992.0, // 2^53
        1e300,
        -1e300,
        -1.0,
        -original,
        original + 1.0,
        original + 150.0,
        original / 2.0,
        original * 2.0,
        original * 64.0,
    ]
}

/// Renders `value` as JSON text.
fn render(value: &JsonValue, out: &mut String) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) => json::write_number(out, *n),
        JsonValue::String(s) => json::write_escaped(out, s),
        JsonValue::Array(items) => {
            out.push('[');
            for (at, item) in items.iter().enumerate() {
                if at > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(map) => {
            out.push('{');
            for (at, (key, item)) in map.iter().enumerate() {
                if at > 0 {
                    out.push(',');
                }
                json::write_escaped(out, key);
                out.push(':');
                render(item, out);
            }
            out.push('}');
        }
    }
}
