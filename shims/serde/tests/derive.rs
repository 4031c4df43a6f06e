//! The derive macros' attribute handling, checked on the `Value` they
//! produce.

use serde::{Serialize, Value};

fn is_zero(n: &usize) -> bool {
    *n == 0
}

#[derive(Serialize)]
struct Tallies {
    name: String,
    #[serde(skip_serializing_if = "is_zero")]
    hedged: usize,
    #[serde(skip_serializing_if = "is_zero")]
    cancelled: usize,
}

#[derive(Serialize)]
enum Event {
    Tally {
        #[serde(skip_serializing_if = "is_zero")]
        hedged: usize,
        cancelled: usize,
    },
}

fn object(v: Value) -> serde::Map {
    match v {
        Value::Object(m) => m,
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn skip_serializing_if_omits_only_fields_the_predicate_accepts() {
    let m = object(
        Tallies {
            name: "f".into(),
            hedged: 0,
            cancelled: 3,
        }
        .serialize(),
    );
    assert!(!m.contains_key("hedged"), "zero field must be skipped");
    assert_eq!(m.get("cancelled"), Some(&3usize.serialize()));
    assert_eq!(m.get("name"), Some(&Value::String("f".into())));
    assert_eq!(m.len(), 2);
}

#[test]
fn skip_serializing_if_applies_to_struct_variants() {
    let outer = object(
        Event::Tally {
            hedged: 0,
            cancelled: 0,
        }
        .serialize(),
    );
    let inner = object(outer.get("Tally").expect("tagged").clone());
    assert!(!inner.contains_key("hedged"));
    assert_eq!(inner.get("cancelled"), Some(&0usize.serialize()));
}
