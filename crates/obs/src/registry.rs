//! Static counter sets. [`counter_set!`](crate::counter_set) declares a
//! struct of `u64` counters from one `field => "obs.name"` list, so each
//! counter is named once: recording is a plain field add, and every
//! surface (`obs counters`, `obs snapshot`, `obs dump`, `wish --stats`,
//! the bench) reads the counters by walking the set.

/// Declares a counter set: a `Copy` struct with one public `u64` field per
/// counter, and
///
/// * `NAMES`: every counter's `obs` name, in declaration order;
/// * `reset()`: zeroes every counter;
/// * `get(name)`: one counter, looked up by its `obs` name;
/// * `iter()`: `(name, value)` for every counter, in declaration order.
///
/// ```
/// rtk_obs::counter_set! {
///     /// Two counters.
///     pub struct Demo {
///         /// Things seen.
///         seen => "demo.seen",
///         kept => "demo.kept",
///     }
/// }
/// let mut d = Demo::default();
/// d.seen += 2;
/// assert_eq!(d.get("demo.seen"), Some(2));
/// assert_eq!(d.iter().collect::<Vec<_>>(), [("demo.seen", 2), ("demo.kept", 0)]);
/// ```
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $field:ident => $key:literal,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $($(#[$fmeta])* pub $field: u64,)*
        }

        impl $name {
            /// Every counter's `obs` name, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$($key),*];

            /// Zeroes every counter.
            pub fn reset(&mut self) {
                *self = Self::default();
            }

            /// The counter named `name`, if this set declares it.
            pub fn get(&self, name: &str) -> Option<u64> {
                self.iter().find(|&(key, _)| key == name).map(|(_, v)| v)
            }

            /// `(name, value)` for every counter, in declaration order.
            pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$(($key, self.$field)),*].into_iter()
            }
        }
    };
}

#[cfg(test)]
mod tests {
    crate::counter_set! {
        /// A test set, declared in name order.
        struct Set {
            a => "a",
            b => "b.x",
        }
    }

    #[test]
    fn counters_accumulate_and_sort() {
        let mut s = Set::default();
        s.b += 1;
        s.a += 5;
        s.b += 1;
        assert_eq!(s.get("a"), Some(5));
        assert_eq!(s.get("b.x"), Some(2));
        assert_eq!(s.get("missing"), None);
        let names: Vec<&str> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(names, Set::NAMES);
        assert_eq!(names, ["a", "b.x"]);
    }

    #[test]
    fn reset_forgets_everything() {
        let mut s = Set { a: 1, b: 2 };
        s.reset();
        assert!(s.iter().all(|(_, v)| v == 0));
        assert_eq!(s, Set::default());
    }

    #[test]
    fn json_is_structurally_valid() {
        let s = Set { a: 1, b: 2 };
        let mut o = crate::json::Object::new();
        o.counters("", s.iter());
        let j = o.build();
        assert!(crate::json::parse(&j).is_ok(), "{j}");
        assert_eq!(j, r#"{"a":1,"b":{"x":2}}"#);
    }
}
