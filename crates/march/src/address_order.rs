//! Address orders of march elements.

use std::fmt;
use std::str::FromStr;

use crate::ParseMarchError;

/// The address order of a march element (Definition 10 of the paper).
///
/// * [`Ascending`](AddressOrder::Ascending) (`⇑`) visits the cells from the lowest
///   address to the highest;
/// * [`Descending`](AddressOrder::Descending) (`⇓`) visits them from the highest to
///   the lowest;
/// * [`Any`](AddressOrder::Any) (`⇕`, written `c` in the paper's Table 1) allows
///   either order; implementations conventionally use the ascending one.
///
/// # Examples
///
/// ```
/// use march_test::AddressOrder;
///
/// assert_eq!("⇑".parse::<AddressOrder>()?, AddressOrder::Ascending);
/// assert_eq!("d".parse::<AddressOrder>()?, AddressOrder::Descending);
/// assert_eq!(AddressOrder::Any.symbol(), "⇕");
/// assert_eq!(AddressOrder::Descending.reversed(), AddressOrder::Ascending);
/// # Ok::<(), march_test::ParseMarchError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum AddressOrder {
    /// Visit cells from address `0` upwards (`⇑`).
    Ascending,
    /// Visit cells from the highest address downwards (`⇓`).
    Descending,
    /// Either order is acceptable (`⇕` / `c`).
    #[default]
    Any,
}

impl AddressOrder {
    /// All three address orders.
    pub const ALL: [AddressOrder; 3] = [
        AddressOrder::Ascending,
        AddressOrder::Descending,
        AddressOrder::Any,
    ];

    /// The Unicode symbol of the order (`⇑`, `⇓`, `⇕`).
    #[must_use]
    pub const fn symbol(self) -> &'static str {
        match self {
            AddressOrder::Ascending => "⇑",
            AddressOrder::Descending => "⇓",
            AddressOrder::Any => "⇕",
        }
    }

    /// A plain-ASCII marker (`up`, `down`, `any`), useful for machine-readable
    /// output.
    #[must_use]
    pub const fn ascii(self) -> &'static str {
        match self {
            AddressOrder::Ascending => "up",
            AddressOrder::Descending => "down",
            AddressOrder::Any => "any",
        }
    }

    /// The opposite order; [`AddressOrder::Any`] is its own opposite.
    #[must_use]
    pub const fn reversed(self) -> AddressOrder {
        match self {
            AddressOrder::Ascending => AddressOrder::Descending,
            AddressOrder::Descending => AddressOrder::Ascending,
            AddressOrder::Any => AddressOrder::Any,
        }
    }

    /// Returns `true` if a march element with this order may legally be executed by
    /// visiting addresses in ascending order.
    #[must_use]
    pub const fn allows_ascending(self) -> bool {
        matches!(self, AddressOrder::Ascending | AddressOrder::Any)
    }

    /// Returns `true` if a march element with this order may legally be executed by
    /// visiting addresses in descending order.
    #[must_use]
    pub const fn allows_descending(self) -> bool {
        matches!(self, AddressOrder::Descending | AddressOrder::Any)
    }

    /// The concrete sequence of cell addresses visited by an element with this order
    /// on a memory of `cells` cells ([`AddressOrder::Any`] uses the ascending
    /// sequence), walked without allocating.
    ///
    /// # Examples
    ///
    /// ```
    /// use march_test::AddressOrder;
    ///
    /// let down: Vec<usize> = AddressOrder::Descending.addresses(3).collect();
    /// assert_eq!(down, vec![2, 1, 0]);
    /// ```
    pub fn addresses(
        self,
        cells: usize,
    ) -> impl DoubleEndedIterator<Item = usize> + ExactSizeIterator {
        let descending = self == AddressOrder::Descending;
        (0..cells).map(move |index| if descending { cells - 1 - index } else { index })
    }
}

impl fmt::Display for AddressOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

impl FromStr for AddressOrder {
    type Err = ParseMarchError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "⇑" | "up" | "u" | "^" | "UP" | "U" | "asc" | "ascending" => {
                Ok(AddressOrder::Ascending)
            }
            "⇓" | "down" | "d" | "DOWN" | "D" | "desc" | "descending" => {
                Ok(AddressOrder::Descending)
            }
            "⇕" | "any" | "c" | "C" | "b" | "ANY" => Ok(AddressOrder::Any),
            other => Err(ParseMarchError::UnknownAddressOrder(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_round_trip() {
        for order in AddressOrder::ALL {
            assert_eq!(order.symbol().parse::<AddressOrder>().unwrap(), order);
            assert_eq!(order.ascii().parse::<AddressOrder>().unwrap(), order);
        }
        assert!("sideways".parse::<AddressOrder>().is_err());
    }

    #[test]
    fn paper_table_marker_c_is_any() {
        assert_eq!("c".parse::<AddressOrder>().unwrap(), AddressOrder::Any);
    }

    #[test]
    fn reversal() {
        assert_eq!(AddressOrder::Ascending.reversed(), AddressOrder::Descending);
        assert_eq!(AddressOrder::Descending.reversed(), AddressOrder::Ascending);
        assert_eq!(AddressOrder::Any.reversed(), AddressOrder::Any);
    }

    #[test]
    fn address_sequences() {
        let walk = |order: AddressOrder, cells| order.addresses(cells).collect::<Vec<_>>();
        assert_eq!(walk(AddressOrder::Ascending, 3), vec![0, 1, 2]);
        assert_eq!(walk(AddressOrder::Descending, 3), vec![2, 1, 0]);
        assert_eq!(walk(AddressOrder::Any, 2), vec![0, 1]);
        assert!(walk(AddressOrder::Ascending, 0).is_empty());
    }

    #[test]
    fn execution_permissions() {
        assert!(AddressOrder::Any.allows_ascending());
        assert!(AddressOrder::Any.allows_descending());
        assert!(AddressOrder::Ascending.allows_ascending());
        assert!(!AddressOrder::Ascending.allows_descending());
        assert!(!AddressOrder::Descending.allows_ascending());
    }
}
