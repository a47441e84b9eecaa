"""Profile the dip in rho near a rational rotation number.

rho(alpha) drops sharply as alpha approaches p/q (the linearization
degenerates there), and the construction lives off exactly these dips: it
parks alpha close enough to a convergent to pull rho down by a prescribed
amount.  This scans a symmetric window around one rational and writes
(alpha_offset, rho_hat) pairs so the dip shape can be plotted.

    python3 scripts/dip_profile.py --rational 1/2 --halfwidth 1e-2 --points 41
"""

import argparse
import csv
import math
import sys

from siegelnum import get_family, parse_rotation, rho_coefficients
from siegelnum.cli import _print
from siegelnum.errors import SiegelnumError


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", default="quadratic")
    ap.add_argument("--rational", default="1/2", help="center of the scan, as p/q")
    ap.add_argument("--halfwidth", type=float, default=1e-2)
    ap.add_argument("--points", type=int, default=41, help="points per side")
    ap.add_argument("--degree", type=int, default=192)
    ap.add_argument("--out", default=None, help="CSV path (default stdout table)")
    args = ap.parse_args()

    center = parse_rotation(f"rat:{args.rational}").value
    fam = get_family(args.family)

    # log-spaced offsets: the dip is much sharper than any linear grid;
    # the whole scan is one batched estimate
    ts = (args.halfwidth * math.exp(-6.0 * (args.points - i) / args.points)
          for i in range(args.points, 0, -1))
    offsets = [sgn * t for t in ts for sgn in (-1.0, 1.0)]
    outcomes = rho_coefficients(fam, [center + off for off in offsets], args.degree)
    rows = [(off, None, type(out).__name__) if isinstance(out, SiegelnumError) else (off, out.rho_hat, "ok")
            for off, out in zip(offsets, outcomes)]
    rows.sort(key=lambda r: r[0])

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["offset", "rho_hat", "status"])
            for off, rho, status in rows:
                w.writerow([repr(off), "" if rho is None else repr(rho), status])
        print(f"wrote {len(rows)} rows to {args.out}")
        return

    # one text through the CLI's writer, which survives a reader that
    # closes stdout early
    lines = [f"dip around {args.rational} ({args.family}, degree {args.degree})",
             f"{'offset':>14} {'rho_hat':>10}"]
    for off, rho, status in rows:
        val = f"{rho:10.4f}" if rho is not None else f"[{status}]"
        lines.append(f"{off:14.3e} {val}")
    _print("\n".join(lines))


if __name__ == "__main__":
    sys.exit(main())
