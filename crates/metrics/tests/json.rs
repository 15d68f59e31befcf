//! The JSON layer's public surface: what the writer emits, what the
//! typed readers accept, and the absent-member rules frames rely on.

use adaphet_metrics::json::{array, object, FromJson, Json, ObjectWriter, ToJson};
use adaphet_metrics::json_escape;

fn written(v: &(impl ToJson + ?Sized)) -> String {
    let mut out = String::new();
    v.write_json(&mut out);
    out
}

#[test]
fn scalars_and_containers_write_their_json_form() {
    assert_eq!(written(&7usize), "7");
    assert_eq!(written(&u64::MAX), "18446744073709551615");
    assert_eq!(written(&1.5), "1.5");
    assert_eq!(written(&1e-7), "0.0000001");
    assert_eq!(written(&f64::NAN), "null");
    assert_eq!(written(&f64::NEG_INFINITY), "null");
    assert_eq!(written(&true), "true");
    assert_eq!(written("a\"b\\c\n\r\t\u{1}é"), "\"a\\\"b\\\\c\\n\\r\\t\\u0001é\"");
    assert_eq!(json_escape("a\"b"), "a\\\"b");
    assert_eq!(written(&Some(3u64)), "3");
    assert_eq!(written(&None::<f64>), "null");
    assert_eq!(written(&vec![(1usize, 2.5), (3, f64::NAN)]), "[[1,2.5],[3,null]]");
    assert_eq!(written(&Vec::<u64>::new()), "[]");
}

#[test]
fn object_writer_places_commas_and_escapes_keys() {
    let mut out = String::new();
    object(&mut out, |o| {
        o.field("a", &1u64).field("b\"", "x");
        array(o.key("c"), [1.0, 2.0], |out, x| (x * 2.0).write_json(out));
        object(o.key("d"), |_| {});
    });
    assert_eq!(out, "{\"a\":1,\"b\\\"\":\"x\",\"c\":[2,4],\"d\":{}}");
    let mut bare = String::new();
    ObjectWriter::bare(&mut bare).field("k", &None::<bool>);
    assert_eq!(bare, "\"k\":null");
}

#[test]
fn integers_reject_what_a_cast_would_mangle() {
    let int = |text: &str| u64::from_json(&Json::parse(text).unwrap());
    assert_eq!(int("12"), Ok(12));
    assert_eq!(int("0"), Ok(0));
    assert_eq!(int("1e3"), Ok(1000));
    for bad in ["-1", "7.9", "1e30", "null", "\"3\"", "true"] {
        assert!(int(bad).is_err(), "{bad}");
    }
    assert!(usize::from_json(&Json::Num(2.5)).is_err());
    assert!(u32::from_json(&Json::Num(5e9)).is_err());
}

#[test]
fn fields_decode_with_their_absent_rules() {
    let v = Json::parse(r#"{"n":3,"s":"x","z":null,"p":[1,2.5],"l":[1,2]}"#).unwrap();
    assert_eq!(v.field::<u64>("n"), Ok(3));
    assert_eq!(v.field::<String>("s"), Ok("x".to_string()));
    assert_eq!(v.field::<Option<u64>>("n"), Ok(Some(3)));
    assert_eq!(v.field::<Option<u64>>("z"), Ok(None));
    assert_eq!(v.field::<Option<u64>>("gone"), Ok(None));
    assert_eq!(v.field::<(usize, f64)>("p"), Ok((1, 2.5)));
    assert_eq!(v.field::<Vec<usize>>("l"), Ok(vec![1, 2]));
    assert_eq!(v.field_or("gone", 9u64), Ok(9));
    assert_eq!(v.field_or("z", 1.5), Ok(1.5));
    assert_eq!(v.field_or("n", 9u64), Ok(3));
    assert_eq!(v.field::<u64>("gone").unwrap_err(), "missing 'gone'");
    let err = v.field::<u64>("s").unwrap_err();
    assert!(err.contains("'s'") && err.contains("non-negative integer"), "{err}");
    assert!(v.field::<f64>("z").is_err(), "null is not a number");
    assert!(v.field::<(usize, usize)>("p").is_err(), "2.5 is not an integer");
    assert!(v.field_or("s", 0u64).is_err(), "a wrong type is not absent");
}

/// The writer spells a non-finite float `null`; the reader must not
/// manufacture one from a literal that overflows `f64`.
#[test]
fn literals_that_overflow_to_infinity_do_not_parse() {
    for bad in ["1e999", "-1e999", "[1,2e400]", "{\"duration\":1e999}"] {
        let err = Json::parse(bad).expect_err(bad);
        assert!(err.starts_with("bad number at byte "), "{bad}: {err}");
    }
    assert_eq!(Json::parse("1e308").unwrap().as_f64(), Some(1e308));
    assert_eq!(Json::parse("-0.0").unwrap().as_f64(), Some(0.0));
    assert_eq!(Json::parse("1e-999").unwrap().as_f64(), Some(0.0), "underflow is finite");
}

/// The parser recurses once per array or object level; a document nested
/// deeper than `MAX_DEPTH` is refused instead of overflowing the stack of
/// the thread that reads it (a wire frame is read on a default-sized
/// spawned thread, and may be up to 1 MiB).
#[test]
fn nesting_deeper_than_the_cap_is_an_error_not_a_stack_overflow() {
    let deep = "[".repeat(1 << 20);
    let err = std::thread::spawn(move || Json::parse(&deep)).join().unwrap().unwrap_err();
    assert!(err.starts_with("nesting deeper than"), "{err}");
    let nest = |depth: usize, open: &str, inner: &str, close: &str| {
        format!("{}{inner}{}", open.repeat(depth), close.repeat(depth))
    };
    let max = adaphet_metrics::json::MAX_DEPTH;
    assert!(Json::parse(&nest(max, "[", "", "]")).is_ok());
    assert!(Json::parse(&nest(max + 1, "[", "", "]")).is_err());
    assert!(Json::parse(&nest(max, "{\"a\":", "1", "}")).is_ok());
    assert!(Json::parse(&nest(max + 1, "{\"a\":", "1", "}")).is_err());
}

/// Strings are copied a run at a time, so reading one is linear in its
/// length whatever its characters are: a quarter mebibyte of non-ASCII
/// text with escapes round-trips (quadratic copying took seconds here).
#[test]
fn long_non_ascii_strings_round_trip() {
    let text: String = "é→\"\\\n\u{1}𝄞 ".repeat(1 << 15);
    assert!(text.len() >= 256 << 10);
    let mut doc = String::new();
    object(&mut doc, |o| {
        o.field("s", &text);
    });
    let back = Json::parse(&doc).unwrap();
    assert_eq!(back.field::<String>("s").unwrap(), text);
}
