"""One set-up sample in a fresh interpreter: reads the workload's inputs as
JSON on standard input and prints the seconds that importing saguaro and
parsing them took.  run.py starts it; it is not meant to be run by hand."""

import json
import sys

from run import timed_setup

if __name__ == "__main__":
    print(timed_setup(json.load(sys.stdin))[2])
