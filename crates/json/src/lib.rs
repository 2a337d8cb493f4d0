//! The workspace's one JSON tokenizer.
//!
//! Every JSON document the workspace reads goes through [`Reader`]:
//! captured request traces (`rubik-workloads::trace_io`), telemetry logs
//! (`rubik-telemetry`), and the bench summary files that `rubik-bench` and
//! the vendored `criterion` merge. A [`Reader`] pulls bytes from any
//! [`Read`] through one fixed window and lends keys, strings and number
//! tokens out of it, so reading allocates nothing per value and its memory
//! does not grow with the document (only a single token longer than the
//! window grows it).
//!
//! The rules are the same for every document:
//!
//! * numbers follow JSON's grammar and convert strictly: [`Reader::f64`]
//!   rejects values that overflow to infinity, and [`Reader::uint`]
//!   accepts only integers that its type holds exactly;
//! * an object read through [`Fields`] rejects unknown, duplicate and
//!   missing fields;
//! * [`Reader::end`] rejects anything but whitespace after the document;
//! * every failure is one [`JsonError`], which carries the byte offset
//!   where reading stopped. The offset depends only on the document, not on
//!   how its bytes were split into reads.
//!
//! [`sections`] and [`merge_sections`] treat a top-level object as named
//! raw sections: a merge replaces some of them and writes every other one
//! back byte for byte. Writers keep their own number formats; [`quote`]
//! writes a string literal for any of them.
//!
//! ```
//! use rubik_json::Reader;
//!
//! let mut json = Reader::new(&br#"{"id": 7, "loads": [0.5, 1e-3]}"#[..]);
//! let (mut id, mut loads) = (0, Vec::new());
//! let mut fields = json.object("sample", &["id", "loads"]).unwrap();
//! while let Some(field) = fields.next(&mut json).unwrap() {
//!     match field {
//!         "id" => id = json.uint::<u64>().unwrap(),
//!         _ => loads = json.list(Reader::f64).unwrap(),
//!     }
//! }
//! json.end().unwrap();
//! assert_eq!((id, loads), (7, vec![0.5, 1e-3]));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt::{self, Write as _};
use std::io::{self, Read};

/// Bytes a new reader's window holds.
const WINDOW: usize = 8 * 1024;

/// How deeply a skipped value may nest arrays and objects.
const MAX_DEPTH: usize = 128;

/// Why a document was rejected, and the byte offset where reading stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    offset: usize,
}

impl JsonError {
    /// An error at byte `offset` of the document.
    pub fn new(message: impl Into<String>, offset: usize) -> Self {
        Self {
            message: message.into(),
            offset,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// A pull tokenizer over one byte window of a [`Read`].
///
/// Each method skips whitespace, then reads and checks one token. The
/// string methods lend their token out of the window until the next call.
/// A failed read is reported as a [`JsonError`] at the offset reached, and
/// the I/O error itself is kept for [`Reader::take_io_error`].
#[derive(Debug)]
pub struct Reader<R> {
    input: R,
    buf: Vec<u8>,
    /// `buf[pos..len]` has been read from the input but not consumed.
    pos: usize,
    len: usize,
    /// Document offset of `buf[0]`.
    base: usize,
    io_error: Option<io::Error>,
}

impl<R> Reader<R> {
    /// Byte offset of the next unconsumed byte.
    pub fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// Bytes the window holds.
    pub fn window(&self) -> usize {
        self.buf.len()
    }

    /// The I/O error that stopped reading, if one did.
    pub fn take_io_error(&mut self) -> Option<io::Error> {
        self.io_error.take()
    }

    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError::new(message, self.offset())
    }
}

impl<R: Read> Reader<R> {
    /// Starts reading a document from `input`.
    pub fn new(input: R) -> Self {
        Self {
            input,
            buf: vec![0; WINDOW],
            pos: 0,
            len: 0,
            base: 0,
            io_error: None,
        }
    }

    /// The byte `n` places after the next unconsumed one, `None` past the
    /// end of the document.
    #[inline]
    fn byte(&mut self, n: usize) -> Result<Option<u8>, JsonError> {
        if self.pos + n < self.len {
            Ok(Some(self.buf[self.pos + n]))
        } else {
            self.fill(n)
        }
    }

    /// Moves the unconsumed bytes to the front of the window and reads
    /// until byte `n` of them is there, doubling the window only when the
    /// unconsumed bytes already fill it.
    #[cold]
    fn fill(&mut self, n: usize) -> Result<Option<u8>, JsonError> {
        self.buf.copy_within(self.pos..self.len, 0);
        self.base += self.pos;
        self.len -= self.pos;
        self.pos = 0;
        while self.len <= n {
            if self.len == self.buf.len() {
                self.buf.resize(2 * self.len, 0);
            }
            match self.input.read(&mut self.buf[self.len..]) {
                Ok(0) => return Ok(None),
                Ok(read) => self.len += read,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    let error = JsonError::new(format!("read failed: {e}"), self.base + self.len);
                    self.io_error = Some(e);
                    return Err(error);
                }
            }
        }
        Ok(Some(self.buf[n]))
    }

    /// Skips whitespace and returns the next byte without consuming it
    /// (`None` at the end of the document).
    fn peek(&mut self) -> Result<Option<u8>, JsonError> {
        while let Some(b) = self.byte(0)? {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Ok(Some(b));
            }
            self.pos += 1;
        }
        Ok(None)
    }

    /// Skips whitespace and returns the offset of the token that follows.
    pub fn token_offset(&mut self) -> Result<usize, JsonError> {
        self.peek()?;
        Ok(self.offset())
    }

    /// Consumes `byte`, which must come next.
    pub fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek()? == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", char::from(byte))))
        }
    }

    /// Checks that nothing but whitespace is left.
    pub fn end(&mut self) -> Result<(), JsonError> {
        match self.peek()? {
            None => Ok(()),
            Some(_) => Err(self.error("trailing data after the document")),
        }
    }

    /// Reads a string, decodes its escapes in place, and lends it out.
    pub fn str(&mut self) -> Result<&str, JsonError> {
        self.expect(b'"')?;
        let at = self.offset() - 1;
        let (mut n, mut escaped) = (0, false);
        loop {
            match self.byte(n)? {
                Some(b'"') => break,
                Some(b'\\') => {
                    escaped = true;
                    n += 2;
                }
                Some(0..=0x1f) => return Err(JsonError::new("control character in string", at)),
                Some(_) => n += 1,
                None => return Err(JsonError::new("unterminated string", at)),
            }
        }
        let start = self.pos;
        self.pos += n + 1;
        let len = if escaped {
            unescape(&mut self.buf[start..start + n])
                .ok_or_else(|| JsonError::new("invalid escape in string", at))?
        } else {
            n
        };
        std::str::from_utf8(&self.buf[start..start + len])
            .map_err(|_| JsonError::new("invalid UTF-8 in string", at))
    }

    /// Reads a number token, checked against JSON's number grammar.
    fn number(&mut self) -> Result<&str, JsonError> {
        self.peek()?;
        let mut n = 0;
        while let Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') = self.byte(n)? {
            n += 1;
        }
        let token = self.pos..self.pos + n;
        if !is_number(&self.buf[token.clone()]) {
            return Err(self.error("expected a number"));
        }
        self.pos += n;
        Ok(std::str::from_utf8(&self.buf[token]).expect("number tokens are ASCII"))
    }

    /// Reads a number token and converts it with `parse`; any failure is
    /// `expected` at the token.
    fn convert<T>(
        &mut self,
        expected: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, JsonError> {
        let at = self.token_offset()?;
        let parsed = self.number().ok().and_then(parse);
        parsed.ok_or_else(|| JsonError::new(expected, at))
    }

    /// Reads a finite number (a literal that overflows to infinity is
    /// rejected).
    pub fn f64(&mut self) -> Result<f64, JsonError> {
        self.convert("expected a finite number", |token| {
            token.parse::<f64>().ok().filter(|v| v.is_finite())
        })
    }

    /// Reads a non-negative integer that `T` holds exactly.
    pub fn uint<T: TryFrom<u64>>(&mut self) -> Result<T, JsonError> {
        self.convert("expected a non-negative integer", |token| {
            T::try_from(token.parse::<u64>().ok()?).ok()
        })
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        match self.peek()? {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.error("expected true or false")),
        }
    }

    /// Reads `null` as `None`, or any other value with `read`.
    pub fn optional<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Option<T>, JsonError> {
        if self.peek()? == Some(b'n') {
            self.literal("null").map(|()| None)
        } else {
            read(self).map(Some)
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        for (n, &b) in word.as_bytes().iter().enumerate() {
            if self.byte(n)? != Some(b) {
                return Err(self.error(format!("expected {word}")));
            }
        }
        self.pos += word.len();
        Ok(())
    }

    /// Reads `{` and returns the reader of the object's fields. Every key
    /// must be one of `names`, at most once, and all of them must be
    /// present unless [`Fields::require`] narrows the set. `what` names the
    /// object in errors.
    pub fn object(
        &mut self,
        what: &'static str,
        names: &'static [&'static str],
    ) -> Result<Fields, JsonError> {
        assert!(names.len() <= 64, "an object has at most 64 fields");
        self.expect(b'{')?;
        Ok(Fields {
            what,
            names,
            seen: 0,
            required: u64::MAX.checked_shr(64 - names.len() as u32).unwrap_or(0),
            first: true,
        })
    }

    /// Reads `[` and returns the reader of the array's elements.
    pub fn array(&mut self) -> Result<Elements, JsonError> {
        self.expect(b'[')?;
        Ok(Elements { first: true })
    }

    /// Reads a whole array, each element with `read`.
    pub fn list<T>(
        &mut self,
        mut read: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        let mut items = self.array()?;
        let mut out = Vec::new();
        while items.next(self)? {
            out.push(read(self)?);
        }
        Ok(out)
    }

    /// Starts the next member of an open object or array: consumes the
    /// ',' before it, or the `close` byte that ends the container and
    /// returns `false`.
    fn member(&mut self, first: &mut bool, close: u8) -> Result<bool, JsonError> {
        let next = self.peek()?;
        if next == Some(close) {
            self.pos += 1;
            return Ok(false);
        }
        if std::mem::take(first) {
            return Ok(true);
        }
        if next == Some(b',') {
            self.pos += 1;
            return Ok(true);
        }
        Err(self.error(format!("expected ',' or '{}'", char::from(close))))
    }

    /// Reads one value of any kind, checking its syntax, and drops it.
    fn skip(&mut self, depth: usize) -> Result<(), JsonError> {
        if depth == MAX_DEPTH {
            return Err(self.error("values nest too deeply"));
        }
        let mut first = true;
        match self.peek()? {
            Some(b'{') => {
                self.pos += 1;
                while self.member(&mut first, b'}')? {
                    self.str()?;
                    self.expect(b':')?;
                    self.skip(depth + 1)?;
                }
            }
            Some(b'[') => {
                self.pos += 1;
                while self.member(&mut first, b']')? {
                    self.skip(depth + 1)?;
                }
            }
            Some(b'"') => {
                self.str()?;
            }
            Some(b't' | b'f') => {
                self.bool()?;
            }
            Some(b'n') => self.literal("null")?,
            _ => {
                self.number()?;
            }
        }
        Ok(())
    }
}

/// The fields of an object being read; [`Fields::next`] yields each key as
/// one of the object's names.
#[derive(Debug, Clone, Copy)]
pub struct Fields {
    what: &'static str,
    names: &'static [&'static str],
    /// Bit `i` stands for `names[i]`.
    seen: u64,
    required: u64,
    first: bool,
}

impl Fields {
    /// Reads the next key and its ':' and returns the key. Returns `None`
    /// once '}' closes an object that holds exactly the required fields.
    pub fn next<R: Read>(
        &mut self,
        json: &mut Reader<R>,
    ) -> Result<Option<&'static str>, JsonError> {
        if !json.member(&mut self.first, b'}')? {
            return self.check(json).map(|()| None);
        }
        let at = json.token_offset()?;
        let key = json.str()?;
        let Some(i) = self.names.iter().position(|name| *name == key) else {
            return Err(JsonError::new(
                format!("unknown {} field \"{key}\"", self.what),
                at,
            ));
        };
        if self.seen & 1 << i != 0 {
            return Err(JsonError::new(
                format!("duplicate {} field \"{key}\"", self.what),
                at,
            ));
        }
        self.seen |= 1 << i;
        json.expect(b':')?;
        Ok(Some(self.names[i]))
    }

    /// Makes `names` the exact set of fields the object must hold, say
    /// once a `kind` field has said which ones.
    ///
    /// # Panics
    ///
    /// Panics if a name is not one of the object's.
    pub fn require(&mut self, names: &[&str]) {
        self.required = 0;
        for name in names {
            let i = self.names.iter().position(|known| known == name);
            self.required |= 1 << i.expect("required fields are among the object's names");
        }
    }

    fn check<R>(&self, json: &Reader<R>) -> Result<(), JsonError> {
        let first = |bits: u64| self.names[bits.trailing_zeros() as usize];
        let missing = self.required & !self.seen;
        if missing != 0 {
            let name = first(missing);
            return Err(json.error(format!("missing {} field \"{name}\"", self.what)));
        }
        let extra = self.seen & !self.required;
        if extra != 0 {
            let name = first(extra);
            return Err(json.error(format!("unexpected {} field \"{name}\"", self.what)));
        }
        Ok(())
    }
}

/// The elements of an array being read.
#[derive(Debug, Clone, Copy)]
pub struct Elements {
    first: bool,
}

impl Elements {
    /// Consumes the ',' before the next element, or the ']' that closes the
    /// array and returns `false`.
    pub fn next<R: Read>(&mut self, json: &mut Reader<R>) -> Result<bool, JsonError> {
        json.member(&mut self.first, b']')
    }
}

/// Whether `token` is a JSON number:
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn is_number(token: &[u8]) -> bool {
    /// Splits off a non-empty run of leading digits.
    fn digits(s: &[u8]) -> Option<(&[u8], &[u8])> {
        let n = s.iter().take_while(|b| b.is_ascii_digit()).count();
        (n > 0).then(|| s.split_at(n))
    }
    let unsigned = token.strip_prefix(b"-").unwrap_or(token);
    let Some((int, mut rest)) = digits(unsigned) else {
        return false;
    };
    if int.len() > 1 && int[0] == b'0' {
        return false;
    }
    if let Some(fraction) = rest.strip_prefix(b".") {
        let Some((_, after)) = digits(fraction) else {
            return false;
        };
        rest = after;
    }
    if let Some(exponent) = rest.strip_prefix(b"e").or_else(|| rest.strip_prefix(b"E")) {
        let exponent = exponent
            .strip_prefix(b"+")
            .or_else(|| exponent.strip_prefix(b"-"))
            .unwrap_or(exponent);
        let Some((_, after)) = digits(exponent) else {
            return false;
        };
        rest = after;
    }
    rest.is_empty()
}

/// Decodes the escapes of a string body in place and returns its decoded
/// length, or `None` for an invalid escape. Decoding never lengthens the
/// text (`\uXXXX` becomes at most three bytes), so it cannot overwrite
/// bytes it has not read yet.
fn unescape(body: &mut [u8]) -> Option<usize> {
    fn hex4(digits: &[u8]) -> Option<u32> {
        digits
            .iter()
            .try_fold(0, |code, &d| Some(code * 16 + char::from(d).to_digit(16)?))
    }
    let (mut read, mut write) = (0, 0);
    while read < body.len() {
        let b = body[read];
        read += 1;
        if b != b'\\' {
            body[write] = b;
            write += 1;
            continue;
        }
        let escape = *body.get(read)?;
        read += 1;
        let decoded = match escape {
            b'"' | b'\\' | b'/' => escape,
            b'b' => 0x08,
            b'f' => 0x0c,
            b'n' => b'\n',
            b'r' => b'\r',
            b't' => b'\t',
            b'u' => {
                // No writer escapes a character outside the BMP, so a
                // surrogate (which `from_u32` refuses) is rejected.
                let c = char::from_u32(hex4(body.get(read..read + 4)?)?)?;
                read += 4;
                write += c.encode_utf8(&mut body[write..]).len();
                continue;
            }
            _ => return None,
        };
        body[write] = decoded;
        write += 1;
    }
    Some(write)
}

/// Appends `s` to `out` as a JSON string literal.
pub fn quote(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => write!(out, "\\u{:04x}", u32::from(c)).expect("writing to a String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Splits the top-level object `text` into its `(name, value)` sections,
/// each value exactly as `text` spells it.
///
/// # Errors
///
/// Returns the first syntax error, a repeated section name, or data after
/// the object.
pub fn sections(text: &str) -> Result<Vec<(String, &str)>, JsonError> {
    let mut json = Reader::new(text.as_bytes());
    json.expect(b'{')?;
    let (mut first, mut out) = (true, Vec::<(String, &str)>::new());
    while json.member(&mut first, b'}')? {
        let at = json.token_offset()?;
        let name = json.str()?.to_string();
        if out.iter().any(|(seen, _)| *seen == name) {
            return Err(JsonError::new(format!("duplicate section \"{name}\""), at));
        }
        json.expect(b':')?;
        let start = json.token_offset()?;
        json.skip(0)?;
        out.push((name, &text[start..json.offset()]));
    }
    json.end()?;
    Ok(out)
}

/// Rewrites the top-level object `text` with each `(name, value)` of
/// `updates` replacing or adding that section, in the layout of the
/// repository's bench files: one `"name": value` line per section in name
/// order, every section not updated copied byte for byte. Text that is not
/// such an object is replaced by the updates alone.
pub fn merge_sections(text: &str, updates: &[(&str, &str)]) -> String {
    let mut merged = sections(text).unwrap_or_default();
    for &(name, value) in updates {
        match merged.iter_mut().find(|(seen, _)| seen == name) {
            Some(section) => section.1 = value,
            None => merged.push((name.to_string(), value)),
        }
    }
    merged.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::from("{\n");
    for (i, (name, value)) in merged.iter().enumerate() {
        out.push_str("  ");
        quote(&mut out, name);
        out.push_str(": ");
        out.push_str(value.trim());
        out.push_str(if i + 1 < merged.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out at most `chunk` bytes per call.
    struct Trickle<'a> {
        bytes: &'a [u8],
        chunk: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Every element of a flat array of strings and numbers, or the first
    /// error.
    fn tokens<R: Read>(mut json: Reader<R>) -> Result<Vec<String>, JsonError> {
        let mut out = Vec::new();
        let mut items = json.array()?;
        while items.next(&mut json)? {
            out.push(match json.peek()? {
                Some(b'"') => json.str()?.to_string(),
                _ => json.f64()?.to_string(),
            });
        }
        json.end()?;
        Ok(out)
    }

    #[test]
    fn number_grammar_is_json_s() {
        for good in ["0", "-0", "7", "-12", "0.5", "1e6", "1E+6", "2.5e-3", "10"] {
            assert!(is_number(good.as_bytes()), "{good}");
        }
        for bad in [
            "", "-", "+1", "01", ".5", "5.", "1e", "1e+", "--1", "1.2.3", "0x1",
        ] {
            assert!(!is_number(bad.as_bytes()), "{bad}");
        }
    }

    #[test]
    fn numbers_convert_strictly() {
        let read = |text: &str| Reader::new(text.as_bytes()).uint::<u64>();
        assert_eq!(read("18446744073709551615"), Ok(u64::MAX));
        assert!(read("18446744073709551616").is_err());
        assert!(read("1e3").is_err());
        assert!(read("1.0").is_err());
        assert!(Reader::new(&b"4294967296"[..]).uint::<u32>().is_err());
        assert_eq!(Reader::new(&b"-1.5e-3"[..]).f64(), Ok(-1.5e-3));
        let err = Reader::new(&b"  1e999"[..]).f64().unwrap_err();
        assert_eq!(err.to_string(), "expected a finite number at byte 2");
    }

    #[test]
    fn strings_decode_every_escape() {
        let text = r#""q\" b\\ s\/ \b\f\n\r\t \u00e9\u20ac é 😀""#;
        let mut json = Reader::new(text.as_bytes());
        assert_eq!(json.str().unwrap(), "q\" b\\ s/ \u{8}\u{c}\n\r\t é€ é 😀");
        for bad in [r#""\x""#, r#""\ud83d\ude00""#, r#""\u12""#, "\"a\nb\""] {
            assert!(Reader::new(bad.as_bytes()).str().is_err(), "{bad}");
        }
    }

    #[test]
    fn fields_reject_unknown_duplicate_missing_and_unexpected_keys() {
        const NAMES: &[&str] = &["a", "b"];
        let read = |text: &str, required: &[&str]| -> Result<(), JsonError> {
            let mut json = Reader::new(text.as_bytes());
            let mut fields = json.object("test", NAMES)?;
            fields.require(required);
            while fields.next(&mut json)?.is_some() {
                json.uint::<u32>()?;
            }
            json.end()
        };
        assert_eq!(read(r#"{"b":1,"a":2}"#, NAMES), Ok(()));
        assert_eq!(read(r#"{"a":1}"#, &["a"]), Ok(()));
        for (text, required, error) in [
            (
                r#"{"a":1,"c":2}"#,
                NAMES,
                r#"unknown test field "c" at byte 7"#,
            ),
            (
                r#"{"a":1,"a":2}"#,
                NAMES,
                r#"duplicate test field "a" at byte 7"#,
            ),
            (r#"{"a":1}"#, NAMES, r#"missing test field "b" at byte 7"#),
            (
                r#"{"a":1,"b":2}"#,
                &["a"],
                r#"unexpected test field "b" at byte 13"#,
            ),
            (r#"{"a":1,}"#, NAMES, "expected '\"' at byte 7"),
            (
                r#"{"a":1,"b":2} x"#,
                NAMES,
                "trailing data after the document at byte 14",
            ),
        ] {
            assert_eq!(read(text, required).unwrap_err().to_string(), error);
        }
    }

    #[test]
    fn tokens_and_errors_do_not_depend_on_read_sizes() {
        let long = "x".repeat(3 * WINDOW);
        let documents = [
            format!(r#"[1.5, "a\"b", "{long}", 2e-3, "é"]"#),
            r#"[1.5, "unterminated]"#.to_string(),
            "[1, 2 3]".to_string(),
            "[1, 1e999]".to_string(),
        ];
        for text in &documents {
            let whole = tokens(Reader::new(text.as_bytes()));
            for chunk in 1..=7 {
                let bytes = text.as_bytes();
                let trickled = tokens(Reader::new(Trickle { bytes, chunk }));
                assert_eq!(trickled, whole, "chunk {chunk}");
            }
        }
        assert_eq!(
            tokens(Reader::new(documents[0].as_bytes())).unwrap()[2],
            long
        );
        let mut json = Reader::new(documents[0].as_bytes());
        assert_eq!(json.window(), WINDOW);
        json.skip(0).unwrap();
        assert!(
            json.window() > long.len(),
            "a longer token grows the window"
        );
    }

    #[test]
    fn sections_split_and_merge_verbatim() {
        let text = "{\n  \"a\": {\"x\": [1, 2], \"s\": \"b}r,ace\"},\n  \"b\": 3.5\n}\n";
        let split = sections(text).unwrap();
        assert_eq!(
            split,
            vec![
                ("a".to_string(), "{\"x\": [1, 2], \"s\": \"b}r,ace\"}"),
                ("b".to_string(), "3.5")
            ]
        );
        assert_eq!(merge_sections(text, &[]), text);
        assert_eq!(
            merge_sections(text, &[("b", "[]"), ("0", "null")]),
            "{\n  \"0\": null,\n  \"a\": {\"x\": [1, 2], \"s\": \"b}r,ace\"},\n  \"b\": []\n}\n"
        );
        assert_eq!(merge_sections("[1]", &[("k", "1")]), "{\n  \"k\": 1\n}\n");
        for bad in [
            "[1]",
            "{\"k\": }",
            "{\"k\": 1, \"k\": 2}",
            "{\"k\": 1} {}",
            "{\"k\": tru}",
        ] {
            assert!(sections(bad).is_err(), "{bad}");
        }
        let deep = format!(
            "{{\"k\": {}{}}}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(sections(&deep).is_err());
    }

    #[test]
    fn quote_escapes_what_json_requires() {
        let mut out = String::new();
        quote(&mut out, "a\"b\\c\n,é");
        assert_eq!(out, r#""a\"b\\c\u000a,é""#);
        assert_eq!(Reader::new(out.as_bytes()).str().unwrap(), "a\"b\\c\n,é");
    }
}
