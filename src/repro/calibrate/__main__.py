"""CLI: ``python -m repro.calibrate [--quick] [--output PATH] [--show]``."""

from __future__ import annotations

import argparse
import sys

from .harness import run_calibration
from .profile import CalibrationProfile, default_profile_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.calibrate",
        description="Micro-benchmark this host and persist a calibration profile.",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller states / fewer repeats (CI)"
    )
    parser.add_argument(
        "--output",
        default=None,
        help=f"profile path (default: {default_profile_path()})",
    )
    parser.add_argument(
        "--show",
        action="store_true",
        help="print the existing profile at --output and exit (no measurement)",
    )
    args = parser.parse_args(argv)
    path = args.output if args.output is not None else default_profile_path()

    if args.show:
        profile = CalibrationProfile.load(path)
        print(profile.to_json())
        age = profile.age_days()
        print(
            "profile age: "
            + (f"{age:.1f} days" if age is not None else "unknown (undated)"),
            file=sys.stderr,
        )
        return 0

    profile = run_calibration(quick=args.quick)
    saved = profile.save(path)
    print(profile.to_json())
    print(f"calibration profile written to {saved}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
