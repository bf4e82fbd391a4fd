import os

from hypothesis import settings

# Under CI (GitHub Actions sets CI) every property test draws the same
# examples on every run and prints the blob that replays a failure, so a
# failure seen there reproduces locally with @reproduce_failure.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
