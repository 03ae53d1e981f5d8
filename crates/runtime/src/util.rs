//! Tiny encoding helpers shared by the report renderers and the serve
//! wire format (no external dependencies, so they live here rather than
//! pulling in a hex/serde crate). Hex encoding is
//! [`zkvc_ff::codec::hex`].

/// Decodes lowercase/uppercase hex; `None` on odd length or bad digits.
/// Runtime (not test-only): the `zkvc client` load driver decodes
/// `proof_hex` fields from server responses with it.
pub(crate) fn unhex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

/// Escapes a string for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkvc_ff::codec::hex;

    #[test]
    fn hex_roundtrips() {
        let bytes = [0u8, 1, 0xab, 0xff, 0x10];
        assert_eq!(hex(&bytes), "0001abff10");
        assert_eq!(unhex("0001abff10").unwrap(), bytes);
        assert_eq!(unhex("0001ABFF10").unwrap(), bytes);
        assert!(unhex("abc").is_none(), "odd length");
        assert!(unhex("zz").is_none(), "bad digit");
    }

    #[test]
    fn json_escape_covers_controls_and_quotes() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\n\t\r"), "x\\n\\t\\r");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
