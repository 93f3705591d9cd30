import pytest

from fimscore import models


@pytest.fixture
def chunk_spy(monkeypatch):
    """``chunk_spy(model, k, group_size)`` caps models.sweep_chunks chunks at
    k groups of ``model``, of the smallest size when a sweep has several
    (so grad_groups chunks too, and with it score,
    score_batch and loglik_and_grad_sum) and returns the list that records
    the group count of every factor_sweep call the model then makes."""

    def install(model, groups_per_chunk, group_size=1):
        monkeypatch.setattr(models, "CHUNK_FLOATS",
                            groups_per_chunk * model.params.n_params)
        sizes = []
        factor_sweep = model.factor_sweep

        def spy(x):
            sizes.append(len(x) // group_size)
            return factor_sweep(x)

        monkeypatch.setattr(model, "factor_sweep", spy)
        return sizes

    return install
