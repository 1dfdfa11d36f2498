"""Matrix exponentials in numpy alone, for ``inference`` and ``spectral``."""

import numpy as np

EXPM_CHUNK = 64                  # matrices per Pade pass; bounds its scratch
# Pade-13 coefficients, and the 1-norm up to which that approximant needs no
# scaling (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005)
PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
          33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
PADE13_THETA = 5.371920351148152


def _expm(a):
    """exp(a) of each matrix of a stack (..., n, n), EXPM_CHUNK matrices at a
    time: Pade-13 scaling and squaring (Higham 2005), each matrix scaled by
    its own power of 2, so a matrix gets the bits it gets alone.  A zero row
    or column of a is the identity's in exp(a), and is set so: those unit
    entries (the drive's constant mode, the integral's own, a frame's vacuum)
    stay exact through the squarings, which would otherwise compound their
    rounding 2^s times.  A non-finite matrix gives a non-finite result."""
    b = PADE13
    eye = np.eye(a.shape[-1])
    flat = a.reshape(-1, *a.shape[-2:])
    e = np.empty_like(flat)
    for start in range(0, len(flat), EXPM_CHUNK):
        x = flat[start:start + EXPM_CHUNK]
        norm = np.abs(x).sum(axis=-2).max(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            squarings = np.ceil(np.log2(norm / PADE13_THETA))
        squarings = np.nan_to_num(np.fmax(squarings, 0.0), posinf=0.0).astype(int)
        x = x * (0.5 ** squarings)[:, None, None]
        x2 = x @ x
        x4 = x2 @ x2
        x6 = x4 @ x2
        u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
                 + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
        v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
             + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye)
        unit = np.all(x == 0.0, axis=-1)[:, :, None] | np.all(x == 0.0, axis=-2)[:, None, :]
        y = np.where(unit, eye, np.linalg.solve(v - u, v + u))
        for k in range(squarings.max(initial=0)):
            more = squarings > k
            y[more] = y[more] @ y[more]
        e[start:start + EXPM_CHUNK] = y
    return e.reshape(a.shape)
