import io
import json

import pytest

from flowring import cli


@pytest.fixture
def cli_json():
    """Run ``cli.main`` on an argv that must succeed and return its parsed JSON stdout."""
    def run(*argv):
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(list(argv), out=out, err=err) == 0, err.getvalue()
        return json.loads(out.getvalue())
    return run
