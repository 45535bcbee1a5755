//! Reference outputs the checks compare against. The dies are the
//! repository's fixed benchmarks, so these hold for every workload seed.
//! A mismatch prints the row the current program produces, in this
//! syntax, on stderr.

/// `plan_large`: `(circuit, die, config, additional wrapper cells,
/// reused scan FFs, sharing-graph edges over both phases)`.
pub const PLAN_LARGE: &[(&str, usize, &str, usize, usize, usize)] = &[
    ("b20", 0, "ours-tight", 357, 150, 27069),
    ("b20", 0, "agrawal-tight", 351, 133, 65843),
    ("b20", 0, "ours-area", 329, 172, 82756),
    ("b20", 1, "ours-tight", 983, 46, 103581),
    ("b20", 1, "agrawal-tight", 993, 48, 265185),
    ("b20", 1, "ours-area", 979, 35, 276645),
    ("b20", 2, "ours-tight", 893, 110, 128888),
    ("b20", 2, "agrawal-tight", 889, 117, 341950),
    ("b20", 2, "ours-area", 872, 118, 368254),
    ("b20", 3, "ours-tight", 345, 79, 38524),
    ("b20", 3, "agrawal-tight", 340, 76, 81466),
    ("b20", 3, "ours-area", 357, 83, 81854),
    ("b22", 0, "ours-tight", 489, 205, 90208),
    ("b22", 0, "agrawal-tight", 488, 191, 206371),
    ("b22", 0, "ours-area", 501, 224, 203460),
    ("b22", 1, "ours-tight", 1259, 199, 235416),
    ("b22", 1, "agrawal-tight", 1250, 197, 624080),
    ("b22", 1, "ours-area", 1224, 200, 676335),
    ("b22", 2, "ours-tight", 1292, 174, 244473),
    ("b22", 2, "agrawal-tight", 1287, 173, 639450),
    ("b22", 2, "ours-area", 1265, 180, 687259),
    ("b22", 3, "ours-tight", 683, 6, 44595),
    ("b22", 3, "agrawal-tight", 681, 6, 108627),
    ("b22", 3, "ours-area", 678, 6, 109428),
];

/// `atpg_table4`: `(die, kind, total faults, detected, untestable,
/// aborted, patterns)` with `AtpgConfig::thorough`.
pub const ATPG_TABLE4: &[(&str, &str, usize, usize, usize, usize, usize)] = &[
    ("b11 Die0", "stuck-at", 904, 762, 138, 4, 28),
    ("b11 Die0", "transition", 904, 737, 163, 4, 258),
    ("b11 Die3", "stuck-at", 1028, 874, 123, 31, 30),
    ("b11 Die3", "transition", 1028, 852, 138, 38, 192),
];
