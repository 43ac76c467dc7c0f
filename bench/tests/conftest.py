"""The self-test imports ``repro`` from the source tree, like run.py."""

import bench

bench.add_src_to_path()
