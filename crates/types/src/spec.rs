//! The validation toolkit every wire-side schema shares.
//!
//! Campaign specs (`serscale-core`) and platform specs (`serscale-soc`)
//! are JSON documents read in one pass straight into their validated
//! types. [`SpecObject`] wraps each JSON object at its dotted path,
//! refuses keys outside the object's known list and hands out typed
//! fields; the checks below narrow each field as it is read, and the
//! first failure is a [`SpecError`] naming the offending field by its
//! dotted path (e.g. `sessions[2].pmd_mv`) and how to fix it.

use std::collections::BTreeMap;

use crate::json::{self, JsonValue};

/// Largest f64 that still represents every integer exactly (2^53).
pub const EXACT_INT_MAX: f64 = 9_007_199_254_740_992.0;

/// A spec field that failed validation, with an actionable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The offending field (dotted path, e.g. `arrays[3].interleave`);
    /// syntax errors in the document itself land on the pseudo-field
    /// `body`.
    pub field: String,
    /// What was wrong and what would be accepted.
    pub reason: String,
}

impl SpecError {
    /// Builds an error naming the offending `field` and why it was
    /// rejected.
    pub fn new(field: impl Into<String>, reason: impl Into<String>) -> Self {
        SpecError {
            field: field.into(),
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spec field `{}`: {}", self.field, self.reason)
    }
}

impl std::error::Error for SpecError {}

/// Checks that `value` is finite and integer-valued in `[min, max]`.
///
/// # Errors
///
/// A [`SpecError`] on `field` ending in `hint` otherwise.
pub fn integer_in(
    field: &str,
    value: f64,
    min: f64,
    max: f64,
    hint: &str,
) -> Result<u64, SpecError> {
    if !value.is_finite() {
        return Err(SpecError::new(
            field,
            format!("{value} is not a finite number; {hint}"),
        ));
    }
    if value.fract() != 0.0 || !(min..=max).contains(&value) {
        return Err(SpecError::new(
            field,
            format!("{value} is not an integer in [{min}, {max}]; {hint}"),
        ));
    }
    Ok(value as u64)
}

/// Checks that `value` is finite and inside `[min, max]`.
///
/// # Errors
///
/// A [`SpecError`] on `field` ending in `hint` otherwise.
pub fn finite_in(
    field: &str,
    value: f64,
    min: f64,
    max: f64,
    hint: &str,
) -> Result<f64, SpecError> {
    if !value.is_finite() || !(min..=max).contains(&value) {
        return Err(SpecError::new(
            field,
            format!("{value} is not a finite number in [{min}, {max}]; {hint}"),
        ));
    }
    Ok(value)
}

/// Checks a name-like identifier: 1–64 chars of `[A-Za-z0-9._-]`.
///
/// # Errors
///
/// A [`SpecError`] on `field` otherwise.
pub fn identifier(field: &str, value: &str) -> Result<String, SpecError> {
    let ok = !value.is_empty()
        && value.len() <= 64
        && value
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(value.to_string())
    } else {
        Err(SpecError::new(
            field,
            format!("{value:?} is not a valid identifier; use 1-64 characters of [A-Za-z0-9._-]"),
        ))
    }
}

/// Checks a short human-readable label: 1–128 printable ASCII chars.
///
/// # Errors
///
/// A [`SpecError`] on `field` otherwise.
pub fn label(field: &str, value: &str) -> Result<String, SpecError> {
    let ok =
        !value.is_empty() && value.len() <= 128 && value.chars().all(|c| matches!(c, ' '..='~'));
    if ok {
        Ok(value.to_string())
    } else {
        Err(SpecError::new(
            field,
            format!("{value:?} is not a printable label of 1-128 ASCII characters"),
        ))
    }
}

/// One JSON object of a spec document, read at its dotted path.
///
/// Opening an object refuses any key outside the object's known list, so
/// a typo'd key cannot silently fall back to a default. A typed read
/// returns `None` for an absent key; a `need_*` read refuses one with
/// "required field is missing". Either refuses a value of another JSON
/// type. Every refusal is a [`SpecError`] on the field's dotted path. A
/// schema reads each field where it validates it, so a document is
/// checked in one pass, in validation order.
pub struct SpecObject<'a> {
    path: String,
    map: &'a BTreeMap<String, JsonValue>,
}

impl<'a> SpecObject<'a> {
    /// Parses `body` and hands its root object, whose keys must be among
    /// `known`, to `read`.
    ///
    /// # Errors
    ///
    /// A [`SpecError`] on the pseudo-field `body` when `body` is not a JSON
    /// object, one on the offending key's path for an unknown key, or
    /// whatever `read` returns.
    pub fn read<T>(
        body: &str,
        known: &[&str],
        read: impl FnOnce(&SpecObject<'_>) -> Result<T, SpecError>,
    ) -> Result<T, SpecError> {
        let doc = json::parse(body)
            .map_err(|e| SpecError::new("body", format!("not valid JSON: {e}")))?;
        let JsonValue::Object(map) = &doc else {
            return Err(SpecError::new(
                "body",
                format!("expected a JSON object, got {}", doc.kind()),
            ));
        };
        read(&SpecObject::checked(String::new(), map, known)?)
    }

    /// Opens `value`, found at `path`, as an object whose keys must be
    /// among `known`.
    ///
    /// # Errors
    ///
    /// A [`SpecError`] on `path` when `value` is not an object, or on the
    /// offending key's path for an unknown key.
    pub fn open(path: String, value: &'a JsonValue, known: &[&str]) -> Result<Self, SpecError> {
        match value {
            JsonValue::Object(map) => SpecObject::checked(path, map, known),
            other => Err(SpecError::new(
                path,
                format!("expected an object, got {}", other.kind()),
            )),
        }
    }

    fn checked(
        path: String,
        map: &'a BTreeMap<String, JsonValue>,
        known: &[&str],
    ) -> Result<Self, SpecError> {
        let object = SpecObject { path, map };
        let Some(key) = map.keys().find(|key| !known.contains(&key.as_str())) else {
            return Ok(object);
        };
        let mut field = object.field(key);
        if field.is_empty() {
            // An empty key at the root would make an unlocatable error;
            // anchor it on the document instead.
            field = "body".to_string();
        }
        Err(SpecError::new(
            field,
            format!(
                "unknown field {key:?}; known fields are {}",
                known.join(", ")
            ),
        ))
    }

    /// The dotted path of `key` in this object (e.g. `physics.detect_l1`).
    pub fn field(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn get<T>(
        &self,
        key: &str,
        expected: &str,
        typed: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<Option<T>, SpecError> {
        let Some(value) = self.map.get(key) else {
            return Ok(None);
        };
        typed(value).map(Some).ok_or_else(|| {
            SpecError::new(
                self.field(key),
                format!("expected {expected}, got {}", value.kind()),
            )
        })
    }

    fn need<T>(&self, key: &str, value: Option<T>) -> Result<T, SpecError> {
        value.ok_or_else(|| SpecError::new(self.field(key), "required field is missing"))
    }

    /// The number at `key`, if present.
    pub fn number(&self, key: &str) -> Result<Option<f64>, SpecError> {
        self.get(key, "a number", JsonValue::as_f64)
    }

    /// The string at `key`, if present.
    pub fn string(&self, key: &str) -> Result<Option<&'a str>, SpecError> {
        self.get(key, "a string", JsonValue::as_str)
    }

    /// The array at `key`, if present.
    pub fn array(&self, key: &str) -> Result<Option<&'a [JsonValue]>, SpecError> {
        self.get(key, "an array", JsonValue::as_array)
    }

    /// The number at `key`, which must be present.
    pub fn need_number(&self, key: &str) -> Result<f64, SpecError> {
        self.need(key, self.number(key)?)
    }

    /// The string at `key`, which must be present.
    pub fn need_string(&self, key: &str) -> Result<&'a str, SpecError> {
        self.need(key, self.string(key)?)
    }

    /// The array at `key`, which must be present.
    pub fn need_array(&self, key: &str) -> Result<&'a [JsonValue], SpecError> {
        self.need(key, self.array(key)?)
    }

    /// The object at `key`, which must be present, opened with the keys
    /// `known`.
    pub fn need_object(&self, key: &str, known: &[&str]) -> Result<SpecObject<'a>, SpecError> {
        let value = self.need(key, self.map.get(key))?;
        SpecObject::open(self.field(key), value, known)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field_once() {
        let err = SpecError::new("arrays[3].interleave", "must be a power of two");
        assert_eq!(
            err.to_string(),
            "spec field `arrays[3].interleave`: must be a power of two"
        );
    }
}
