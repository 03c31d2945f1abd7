//! Property-based tests for the HTML substrate.
//!
//! Invariants:
//! - the lexer never panics on arbitrary input, and serialize∘lex is
//!   idempotent (a fixpoint after one round);
//! - text content survives lexing;
//! - URL join results are well-formed (absolute path, no dot segments)
//!   and display→parse round-trips;
//! - entity decode of encode is the identity.

use aide_htmlkit::entity::{decode_entities, encode_entities};
use aide_htmlkit::lexer::{lex, serialize, Token};
use aide_htmlkit::url::Url;
use proptest::prelude::*;

fn html_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("<".to_string()),
            Just(">".to_string()),
            Just("</".to_string()),
            Just("<P>".to_string()),
            Just("</P>".to_string()),
            Just("<A HREF=\"x\">".to_string()),
            Just("<IMG SRC='y.gif'>".to_string()),
            Just("<!-- c -->".to_string()),
            Just("<!DOCTYPE html>".to_string()),
            Just("text ".to_string()),
            Just("a&amp;b ".to_string()),
            Just("& ".to_string()),
            Just("\"quote'".to_string()),
            Just("=".to_string()),
            Just("<B".to_string()),
            "[ -~]{0,6}".prop_map(|s| s),
        ],
        0..30,
    )
    .prop_map(|v| v.concat())
}

proptest! {
    #[test]
    fn lexer_never_panics(s in html_soup()) {
        let _ = lex(&s);
    }

    #[test]
    fn serialize_lex_is_idempotent(s in html_soup()) {
        let once = serialize(&lex(&s));
        let twice = serialize(&lex(&once));
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn tokens_roundtrip_through_serialization(s in html_soup()) {
        let tokens = lex(&s);
        let once = serialize(&tokens);
        let round = lex(&once);
        // Token streams are equal after one normalization pass.
        let twice = serialize(&round);
        prop_assert_eq!(lex(&twice), round);
    }

    #[test]
    fn plain_text_survives(words in proptest::collection::vec("[a-z]{1,8}", 1..10)) {
        let text = words.join(" ");
        let tokens = lex(&text);
        prop_assert_eq!(tokens.len(), 1);
        match &tokens[0] {
            Token::Text(t) => prop_assert_eq!(t, &text),
            other => prop_assert!(false, "expected text, got {:?}", other),
        }
    }

    #[test]
    fn entity_encode_decode_identity(s in "[ -~]{0,40}") {
        prop_assert_eq!(decode_entities(&encode_entities(&s)), s);
    }

    #[test]
    fn url_join_yields_wellformed(path in "[a-z0-9./]{0,20}") {
        let base = Url::parse("http://host/dir/sub/page.html").unwrap();
        if let Ok(joined) = base.join(&path) {
            prop_assert!(joined.path.starts_with('/'), "path {:?}", joined.path);
            prop_assert!(!joined.path.contains("/../"), "unnormalized {:?}", joined.path);
            prop_assert!(!joined.path.ends_with("/.."), "unnormalized {:?}", joined.path);
            // Display → parse round-trips.
            let reparsed = Url::parse(&joined.to_string()).unwrap();
            prop_assert_eq!(reparsed, joined);
        }
    }

    #[test]
    fn url_display_parse_roundtrip(
        host in "[a-z]{1,8}(\\.[a-z]{2,3})?",
        path in "(/[a-z0-9]{1,6}){0,4}",
        port in proptest::option::of(1u16..60000),
    ) {
        let mut url = format!("http://{host}");
        if let Some(p) = port {
            url.push_str(&format!(":{p}"));
        }
        url.push_str(if path.is_empty() { "/" } else { &path });
        let parsed = Url::parse(&url).unwrap();
        prop_assert_eq!(Url::parse(&parsed.to_string()).unwrap(), parsed);
    }
}
