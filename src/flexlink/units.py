"""dB/dBm conversion helpers.

All internal computation is in linear SI units (watts, bit/s, linear gains);
decibel scales appear only at I/O boundaries.
"""

import numpy as np


def db_to_linear(x_db):
    x = np.asarray(x_db, dtype=float) / 10.0
    return np.power(10.0, x, out=x) if x.ndim else 10.0 ** x


def linear_to_db(x):
    return 10.0 * np.log10(np.asarray(x, dtype=float))


def dbm_to_watt(x_dbm):
    return 10.0 ** ((np.asarray(x_dbm, dtype=float) - 30.0) / 10.0)


def watt_to_dbm(x_w):
    return 10.0 * np.log10(np.asarray(x_w, dtype=float)) + 30.0
