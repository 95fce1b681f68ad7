//! The one JSON writer behind every `BENCH_*.json`.
//!
//! The workspace has no serde. A report builds a [`Json`] tree — object
//! keys stay in insertion order, every number carries its decimal
//! places — and [`Json::render`] writes it: a container at depth 0, 1
//! or 2 that holds containers gets one entry per line, everything else
//! is written on one line.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An integer.
    Int(u64),
    /// A number written with a fixed number of decimal places (`null`
    /// when it is not finite).
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(&'static str, Json)>),
}

/// `x` with `places` decimal places.
pub fn fixed(x: f64, places: usize) -> Json {
    Json::Fixed(x, places)
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// The document: the value plus a final newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// The value at `key` of an object; `None` for a missing key or a
    /// value that is not an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn is_container(&self) -> bool {
        matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Bool(b) => out.push_str(&b.to_string()),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Fixed(x, places) if x.is_finite() => out.push_str(&format!("{x:.places$}")),
            Json::Fixed(..) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_list(out, depth, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(fields) => {
                write_list(out, depth, "{}", fields.iter().map(|(k, v)| (Some(*k), v)))
            }
        }
    }
}

fn write_list<'a>(
    out: &mut String,
    depth: usize,
    brackets: &str,
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) {
    let broken = depth < 3 && items.clone().any(|(_, v)| v.is_container());
    let indent = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    out.push_str(&brackets[..1]);
    for (i, (key, value)) in items.enumerate() {
        if i > 0 {
            out.push(',');
            if !broken {
                out.push(' ');
            }
        }
        if broken {
            indent(out, depth + 1);
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if broken {
        indent(out, depth);
    }
    out.push_str(&brackets[1..]);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let s = Json::from("a \"q\" \\ b\nc\td\u{1}");
        assert_eq!(s.render(), "\"a \\\"q\\\" \\\\ b\\nc\\td\\u0001\"\n");
    }

    #[test]
    fn numbers_keep_their_decimal_places() {
        let doc = Json::Obj(vec![
            ("a", fixed(1.0, 3)),
            ("b", fixed(2.0 / 3.0, 4)),
            ("c", fixed(12.5, 1)),
            ("d", fixed(f64::INFINITY, 2)),
            ("n", 7u64.into()),
            ("t", true.into()),
        ]);
        assert_eq!(
            doc.render(),
            "{\"a\": 1.000, \"b\": 0.6667, \"c\": 12.5, \"d\": null, \"n\": 7, \"t\": true}\n"
        );
    }

    #[test]
    fn empty_containers_and_no_trailing_commas() {
        let row = |name: &str| Json::Obj(vec![("name", name.into()), ("n", 1u64.into())]);
        let doc = Json::Obj(vec![
            ("none", Json::Arr(vec![])),
            ("ints", [1u64, 2].into_iter().collect()),
            ("rows", Json::Arr(vec![row("x"), row("y")])),
            (
                "deep",
                Json::Arr(vec![Json::Obj(vec![("xs", Json::Arr(vec![]))])]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        let want = concat!(
            "{\n",
            "  \"none\": [],\n",
            "  \"ints\": [1, 2],\n",
            "  \"rows\": [\n",
            "    {\"name\": \"x\", \"n\": 1},\n",
            "    {\"name\": \"y\", \"n\": 1}\n",
            "  ],\n",
            "  \"deep\": [\n",
            "    {\n",
            "      \"xs\": []\n",
            "    }\n",
            "  ],\n",
            "  \"empty\": {}\n",
            "}\n",
        );
        assert_eq!(doc.render(), want);
    }
}
