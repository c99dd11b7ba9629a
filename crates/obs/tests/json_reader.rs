//! The one JSON reader: `json::parse` and the `/v1/infer` decoder walk the
//! same `json::Cursor`, so they read numbers by the same grammar. std's
//! float parser alone would also take a leading zero, a bare fraction point
//! and a missing integer part.

use tssa_obs::json::{parse, Cursor, JsonValue};

#[test]
fn parse_refuses_what_the_number_grammar_refuses() {
    for bad in [
        "01",
        "-01",
        "00",
        "1.",
        "1.e5",
        "-.5",
        ".5",
        "+1",
        "1e",
        "1e+",
        "-",
        "inf",
        "NaN",
        "[1, 01]",
        "{\"a\": 1.}",
    ] {
        assert!(parse(bad).is_err(), "{bad} parsed");
    }
    for (good, want) in [
        ("0", 0.0),
        ("-0", -0.0),
        ("10", 10.0),
        ("0.5", 0.5),
        ("-1.25e-2", -0.0125),
        ("1E3", 1000.0),
        ("2e+1", 20.0),
    ] {
        assert_eq!(parse(good), Ok(JsonValue::Num(want)), "{good}");
    }
    assert_eq!(parse("1e999"), Ok(JsonValue::Num(f64::INFINITY)));
}

#[test]
fn a_cursor_copy_rereads_from_where_it_was_taken() {
    let mut c = Cursor::new(r#" {"data": [1, null, 2.5], "next": true} "#);
    assert_eq!(c.open(b'{', b'}'), Ok(true));
    assert_eq!(c.key().as_deref(), Ok("data"));
    let mark = c;
    c.skip(1).expect("one level of nesting is within the cap");
    let mut capped = mark;
    assert!(capped.skip(0).is_err(), "a cap of 0 opens nothing");

    let mut again = mark;
    assert_eq!(again.open(b'[', b']'), Ok(true));
    assert_eq!(again.float(f64::NAN).map(f64::to_bits), Ok(1f64.to_bits()));
    assert_eq!(again.more(b']'), Ok(true));
    assert!(again.float(f64::NAN).is_ok_and(f64::is_nan), "null is NaN");

    assert_eq!(c.more(b'}'), Ok(true));
    assert_eq!(c.key().as_deref(), Ok("next"));
    assert_eq!(c.bool(), Ok(true));
    assert_eq!(c.more(b'}'), Ok(false));
    assert_eq!(c.end(), Ok(()));
}
