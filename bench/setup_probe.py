"""Times the program's own set-up in a fresh interpreter.

    python3 bench/setup_probe.py --corpus FILE --modes mobile,desktop --throttle 4g

Prints two times in seconds: the reference loop (``reference.py``), run
right after the set-up, and the set-up. Set-up is
everything before the first audit: importing webaudit, loading the
calibration and the member regions, ingesting and filtering the corpus,
and resolving the throttle per mode. Interpreter start-up is not included.
"""

from __future__ import annotations

import argparse
import time

from program import add_program_to_path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--modes", required=True)
    parser.add_argument("--throttle", required=True)
    args = parser.parse_args()
    add_program_to_path()

    t0 = time.perf_counter()
    import webaudit

    calibration = webaudit.load_calibration()
    members = webaudit.load_member_regions()
    records = webaudit.membership_filter(webaudit.ingest_corpus(args.corpus, members), members)
    profiles = [
        webaudit.resolve_throttle(args.throttle, calibration, calibration.mode(kind)) for kind in args.modes.split(",")
    ]
    elapsed = time.perf_counter() - t0
    if not records or not profiles:
        raise SystemExit("setup_probe: nothing to audit")
    from reference import reference_seconds  # after the set-up: its imports would shorten it

    print(repr(reference_seconds()), repr(elapsed))


if __name__ == "__main__":
    main()
