import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "same_outputs.py")


def same_outputs(parent, change):
    return subprocess.run(
        [sys.executable, TOOL, parent, change, "--seeds", "3",
         "--workloads", "reduction-witness"],
        capture_output=True, text=True, cwd=ROOT)


def test_a_tree_has_the_same_outputs_as_itself():
    proc = same_outputs(ROOT, os.path.join(ROOT, "src"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert re.search(r"reduction-witness seed 3: [1-9]\d* queries, [1-9]\d* "
                     r"files, 0 differences", proc.stderr)


def test_a_changed_vars_file_is_reported(tmp_path):
    # a copy whose published variable index lists player 1's flags in
    # reverse: the game and its answers are the same, the files are not
    shutil.copytree(os.path.join(ROOT, "src", "boolgames"),
                    tmp_path / "boolgames")
    path = tmp_path / "boolgames" / "reductions.py"
    text = path.read_text()
    assert text.count('"entry1": e1.flags,') == 1
    path.write_text(text.replace('"entry1": e1.flags,',
                                 '"entry1": e1.flags[::-1],'))
    proc = same_outputs(os.path.join(ROOT, "src"), str(tmp_path))
    assert proc.returncode == 1
    reported = proc.stdout.splitlines()
    assert reported
    assert all(re.fullmatch(r"reduction-witness seed 3 file \S+\.vars\.json: "
                            r"sha256 [0-9a-f]{64}, now [0-9a-f]{64}", line)
               for line in reported)
