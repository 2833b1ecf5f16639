"""A hand-built carrier-sense / NAV / capture verdict table (paper §3.2.2).

Four antennas with the pairwise sensing powers below, under the default
:class:`~repro.config.MacConfig` thresholds: energy detect at -77 dBm,
preamble decode at -80 dBm, 4 dB preamble capture.  Every verdict was
worked out by hand from those numbers (the comment on each row shows the
arithmetic), so the table checks the carrier-sense kernels against the
paper's rules rather than against another implementation.

:func:`reference_sensed_mw` and :func:`reference_decodes` state the same
rules link by link, for checking the kernels on random cross-power maps.
"""

from __future__ import annotations

import math

INF = math.inf

#: ``CROSS_DBM[l][t]``: power antenna ``l`` senses when antenna ``t``
#: transmits at full per-antenna power; +inf on the diagonal.
CROSS_DBM = [
    [INF, -60.0, -79.0, -95.0],
    [-60.0, INF, -70.0, -79.5],
    [-79.0, -70.0, INF, -78.5],
    [-95.0, -79.5, -78.5, INF],
]

#: ``(listener, transmitters, busy)``: energy-detect verdicts; the
#: listener's own transmission never counts toward what it senses.
BUSY = [
    (0, [1], True),  # -60 dBm >= -77
    (0, [2], False),  # -79 dBm < -77
    (0, [2, 3], False),  # -79 (+) -95 = -78.9 dBm
    (3, [1], False),  # -79.5 dBm
    (3, [2], False),  # -78.5 dBm
    (3, [1, 2], True),  # -79.5 (+) -78.5 = -76.0 dBm: only the sum is busy
    (1, [1], False),  # own transmission ignored
    (1, [], False),  # nothing on the air
]

#: ``(listener, transmitter, interferers, decodes)``: preamble decode, with
#: capture required against the aggregate of ``interferers``.
DECODE = [
    (0, 1, [], True),  # -60 >= -80
    (0, 2, [], True),  # -79 >= -80
    (0, 3, [], False),  # -95 < -80
    (3, 1, [], True),  # -79.5 >= -80
    (0, 2, [1], False),  # -79 vs -60: 19 dB under the interferer
    (0, 1, [2], True),  # -60 vs -79: 19 dB >= 4
    (3, 2, [1], False),  # -78.5 vs -79.5: 1 dB < 4
    (3, 2, [0], True),  # -78.5 vs -95: 16.5 dB
    (3, 1, [0, 2], False),  # -79.5 vs (-95 (+) -78.5 = -78.4)
    (2, 1, [3], True),  # -70 vs -78.5: 8.5 dB
]

#: ``(transmitters, nav_listeners)``: the non-transmitting antennas whose
#: NAV the transmission sets (each decodes at least one transmitter
#: through the others).
NAV = [
    ([1], [0, 2, 3]),
    ([1, 2], [0]),  # 3 hears 1 and 2 within 1 dB: neither captures
    ([3], [1, 2]),  # 0 hears 3 at -95 dBm only
    ([0, 3], [1]),  # 2 hears 0 and 3 within 0.5 dB
]


def reference_sensed_mw(cross_dbm, listener: int, transmitters) -> float:
    """Aggregate power ``listener`` senses from ``transmitters`` (its own
    transmission excluded), summed link by link in mW."""
    return sum(
        10.0 ** (cross_dbm[listener][t] / 10.0) for t in transmitters if t != listener
    )


def reference_decodes(cross_dbm, listener: int, transmitter: int, interferers, mac) -> bool:
    """Preamble decode straight from the rules: the lone preamble clears the
    decode threshold (an antenna always decodes itself), and with other
    transmitters in the air it captures by ``mac.preamble_capture_db``."""
    if listener != transmitter and cross_dbm[listener][transmitter] < mac.nav_decode_dbm:
        return False
    others = [a for a in interferers if a not in (listener, transmitter)]
    interference = reference_sensed_mw(cross_dbm, listener, others)
    if interference <= 0:
        return True
    signal = 0.0 if listener == transmitter else 10.0 ** (cross_dbm[listener][transmitter] / 10.0)
    return signal >= 10.0 ** (mac.preamble_capture_db / 10.0) * interference
