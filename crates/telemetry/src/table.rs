//! Metric tables: a struct of registry handles declared one row per metric.
//!
//! [`metrics!`](crate::metrics) turns rows of `field: kind(subsystem, name)`
//! into the handle struct, its registration against a
//! [`Registry`](crate::Registry) and, when the table names one, the plain
//! snapshot struct with its `snapshot()`. A new metric is one row; the key
//! string, the handle and the snapshot field cannot drift apart.

use crate::metrics::{Counter, Gauge};

/// How a handle reads into one plain `u64` snapshot field.
pub trait Reading {
    /// The value a snapshot records.
    fn reading(&self) -> u64;
}

impl Reading for Counter {
    fn reading(&self) -> u64 {
        self.get()
    }
}

/// Per-rank gauges are high-water marks: a snapshot records the highest.
impl Reading for Vec<Gauge> {
    fn reading(&self) -> u64 {
        self.iter()
            .map(|g| g.get().max(0) as u64)
            .max()
            .unwrap_or(0)
    }
}

/// Declare a struct of metric handles as a table, one row per metric.
///
/// ```
/// ttg_telemetry::metrics! {
///     /// Handles of a toy layer.
///     pub struct Toy for ranks {
///         /// Messages sent (a snapshot field of the same name).
///         pub sent: counter("toy", "sent"),
///         /// Time per send, ns (two snapshot fields, named by the row).
///         pub send_ns: histogram("toy", "send_ns") => send_p50_ns, send_p99_ns,
///         /// Bytes per rank (handles only).
///         pub bytes: ranked counter("toy", "bytes"),
///         /// Deepest queue per rank (a snapshot reads the highest).
///         pub queue_hwm: ranked gauge("toy", "queue_hwm"),
///     }
///     /// Plain values of [`Toy`].
///     pub struct ToySnapshot;
/// }
///
/// let reg = ttg_telemetry::Registry::new();
/// let toy = Toy::register(&reg, 2);
/// toy.sent.inc();
/// toy.queue_hwm[1].set_max(7);
/// let snap = toy.snapshot();
/// assert_eq!((snap.sent, snap.queue_hwm), (1, 7));
/// ```
///
/// A row is `[vis] field: kind`, and the handle field takes the row's
/// visibility. Row kinds:
/// * `counter(s, n)`, `gauge(s, n)`, `histogram(s, n) => p50, p99` — one
///   handle. A snapshot carries a counter under the row's name and a
///   histogram's median and 99th percentile (upper bounds of their log₂
///   buckets) under the two names the row gives; a gauge is handle-only.
/// * `ranked counter(s, n)`, `ranked gauge(s, n)` — one handle per rank,
///   `Vec`-indexed by rank. Handle-only, except that a snapshot reads a
///   ranked gauge as its highest value.
/// * `Table { snap_field: handle, .. }` — a nested table, registered in the
///   same registry; the snapshot reads the named handles of it.
///
/// `for ranks` makes `register(reg, ranks)`: counters, gauges and
/// histograms are execution-wide keys and a ranked row has a cell per rank
/// `0..ranks`. `for rank` makes `register(reg, rank)`: every row is keyed
/// at that one rank, and ranked rows are refused.
#[macro_export]
macro_rules! metrics {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident for $scope:ident { $($rows:tt)* }
        $( $(#[$sattr:meta])* $svis:vis struct $snap:ident; )?
    ) => {
        $crate::metrics!(@row [$(#[$attr])* $vis $name $scope]
            [$( $(#[$sattr])* $svis $snap )?] [] [] $($rows)*);
    };

    // One rule per row kind: append the handle and its snapshot reads.
    (@row $hdr:tt $snap:tt [$($h:tt)*] [$($r:tt)*]
        $(#[$m:meta])* $fvis:vis $field:ident : counter $key:tt $(, $($rest:tt)*)?
    ) => {
        $crate::metrics!(@row $hdr $snap
            [$($h)* { [$(#[$m])*] [$fvis] $field [counter $key] }]
            [$($r)* { [$(#[$m])*] $field [reading $field] }]
            $($($rest)*)?);
    };
    (@row $hdr:tt $snap:tt [$($h:tt)*] [$($r:tt)*]
        $(#[$m:meta])* $fvis:vis $field:ident : gauge $key:tt $(, $($rest:tt)*)?
    ) => {
        $crate::metrics!(@row $hdr $snap
            [$($h)* { [$(#[$m])*] [$fvis] $field [gauge $key] }]
            [$($r)*]
            $($($rest)*)?);
    };
    (@row $hdr:tt $snap:tt [$($h:tt)*] [$($r:tt)*]
        $(#[$m:meta])* $fvis:vis $field:ident : histogram $key:tt => $p50:ident, $p99:ident
        $(, $($rest:tt)*)?
    ) => {
        $crate::metrics!(@row $hdr $snap
            [$($h)* { [$(#[$m])*] [$fvis] $field [histogram $key] }]
            [$($r)*
                { [$(#[$m])* #[doc = ""] #[doc = "Median: upper bound of its log₂ bucket, 0 when empty."]]
                  $p50 [quantile 0.5 $field] }
                { [$(#[$m])* #[doc = ""] #[doc = "99th percentile: upper bound of its log₂ bucket."]]
                  $p99 [quantile 0.99 $field] }]
            $($($rest)*)?);
    };
    (@row $hdr:tt $snap:tt [$($h:tt)*] [$($r:tt)*]
        $(#[$m:meta])* $fvis:vis $field:ident : ranked counter $key:tt $(, $($rest:tt)*)?
    ) => {
        $crate::metrics!(@row $hdr $snap
            [$($h)* { [$(#[$m])*] [$fvis] $field [ranked counter $key] }]
            [$($r)*]
            $($($rest)*)?);
    };
    (@row $hdr:tt $snap:tt [$($h:tt)*] [$($r:tt)*]
        $(#[$m:meta])* $fvis:vis $field:ident : ranked gauge $key:tt $(, $($rest:tt)*)?
    ) => {
        $crate::metrics!(@row $hdr $snap
            [$($h)* { [$(#[$m])*] [$fvis] $field [ranked gauge $key] }]
            [$($r)* { [$(#[$m])*] $field [reading $field] }]
            $($($rest)*)?);
    };
    (@row $hdr:tt $snap:tt [$($h:tt)*] [$($r:tt)*]
        $(#[$m:meta])* $fvis:vis $field:ident : $table:ident {
            $( $(#[$sm:meta])* $sf:ident : $src:ident ),* $(,)?
        } $(, $($rest:tt)*)?
    ) => {
        $crate::metrics!(@row $hdr $snap
            [$($h)* { [$(#[$m])*] [$fvis] $field [table $table] }]
            [$($r)* $( { [$(#[$sm])*] $sf [reading $field . $src] } )*]
            $($($rest)*)?);
    };

    // All rows read: emit the handle struct, its registration, the snapshot.
    (@row [$(#[$attr:meta])* $vis:vis $name:ident $scope:ident] [$($snap:tt)*]
        [$( { [$(#[$m:meta])*] [$fvis:vis] $field:ident [$($kind:tt)+] } )*] [$($r:tt)*]
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $( $(#[$m])* $fvis $field: $crate::metrics!(@ty $($kind)+), )*
        }

        impl $name {
            /// Register (or re-attach to) every row's cells in `reg`.
            pub fn register(reg: &$crate::Registry, $scope: usize) -> Self {
                $name { $( $field: $crate::metrics!(@init reg $scope $($kind)+), )* }
            }
        }

        $crate::metrics!(@snapshot $name [$($snap)*] $($r)*);
    };

    (@ty counter $key:tt) => { $crate::Counter };
    (@ty gauge $key:tt) => { $crate::Gauge };
    (@ty histogram $key:tt) => { $crate::Histogram };
    (@ty ranked counter $key:tt) => { Vec<$crate::Counter> };
    (@ty ranked gauge $key:tt) => { Vec<$crate::Gauge> };
    (@ty table $table:ident) => { $table };

    (@init $reg:ident rank ranked $($rest:tt)*) => {
        compile_error!("a table keyed at one rank has no ranked rows")
    };
    (@init $reg:ident $ranks:ident ranked $kind:ident ($s:literal, $n:literal)) => {
        (0..$ranks)
            .map(|r| $reg.$kind($crate::MetricKey::ranked(r, $s, $n)))
            .collect()
    };
    (@init $reg:ident $scope:ident table $table:ident) => {
        $table::register($reg, $scope)
    };
    (@init $reg:ident ranks $kind:ident ($s:literal, $n:literal)) => {
        $reg.$kind($crate::MetricKey::global($s, $n))
    };
    (@init $reg:ident $rank:ident $kind:ident ($s:literal, $n:literal)) => {
        $reg.$kind($crate::MetricKey::ranked($rank, $s, $n))
    };

    (@snapshot $name:ident [] $($r:tt)*) => {};
    (@snapshot $name:ident [$(#[$sattr:meta])* $svis:vis $snap:ident]
        $( { [$(#[$m:meta])*] $sf:ident [$($read:tt)+] } )*
    ) => {
        $(#[$sattr])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $svis struct $snap {
            $( $(#[$m])* pub $sf: u64, )*
        }

        impl $name {
            /// Capture every row's current value.
            pub fn snapshot(&self) -> $snap {
                $snap { $( $sf: $crate::metrics!(@read self $($read)+), )* }
            }
        }

        impl $snap {
            /// Every field as `(name, value)`, in table order.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$( (stringify!($sf), self.$sf), )*]
            }
        }
    };

    (@read $s:tt reading $($path:tt)+) => {
        $crate::Reading::reading(&$s.$($path)+)
    };
    (@read $s:tt quantile $q:literal $field:ident) => {
        $s.$field.quantile($q)
    };
}
